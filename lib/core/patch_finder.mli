(** Patch finding (Sec. 3.2, Fig. 3): discovering the granularity at which
    scratchpad locations are interchangeable for stressing.

    For each litmus test T, distance d and scratchpad location l, the
    campaign runs C executions of 〈T_d, l〉 — the test instance with a
    single stressed location — and records the number of weak behaviours.
    A maximal run of contiguous locations each showing more than ε weak
    behaviours is an ε-patch; if all three tests agree on the patch size
    with the most ε-patches, that is the chip's critical patch size. *)

type cell = {
  idiom : Litmus.Test.idiom;
  distance : int;
  location : int;
  weak : int;  (** weak behaviours observed in [runs] executions *)
}

type result = {
  cells : cell list;  (** the full grid, for Fig. 3 *)
  runs : int;
  per_idiom : (Litmus.Test.idiom * int option) list;
      (** modal ε-patch size observed per test, [None] if no patches *)
  critical : int option;
      (** agreed critical patch size, when all tests with patches agree *)
  chosen : int;
      (** the value used downstream: the agreed size, else the modal size
          among the tests that did exhibit patches (the paper's 980
          fallback), else the architectural default *)
}

val run :
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  chip:Gpusim.Chip.t -> seed:int -> budget:Budget.t ->
  unit ->
  result
(** The full (idiom, distance, location) grid is planned, executed and
    reduced through {!Exec}; results are bit-identical across executor
    backends at the same seed.  [journal] journals each grid point's
    weak count under phase ["patch"]. *)

(** {1 Ledger codecs} *)

val scores : (Litmus.Test.idiom * int) list Codec.t
(** Per-idiom scores; idioms serialise by display name ("MP"/"LB"/"SB").
    Shared by the other finder stages' codecs. *)

val result : result Codec.t

val patch_sizes_of_row : eps:int -> stride:int -> (int * int) list -> int list
(** [patch_sizes_of_row ~eps ~stride cells] extracts the sizes (in words)
    of maximal contiguous runs of (location, weak) samples exceeding [eps],
    given the sampling [stride].  Exposed for unit testing. *)
