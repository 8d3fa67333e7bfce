(** Spread finding (Sec. 3.4, Fig. 4): how many critical-patch-sized
    regions to stress simultaneously.

    For each spread m, the campaign runs executions in which a fresh
    random subset of m regions is stressed (threads divided evenly among
    them), sums weak behaviours over the sampled distances per litmus
    test, and selects the Pareto-optimal spread. *)

type point = {
  spread : int;
  scores : (Litmus.Test.idiom * int) list;  (** per-test totals (Fig. 4) *)
}

type result = {
  points : point list;
  winner : int;
  sequence : Access_seq.t;
  patch : int;
}

val run :
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  chip:Gpusim.Chip.t ->
  seed:int ->
  budget:Budget.t ->
  patch:int ->
  sequence:Access_seq.t ->
  unit ->
  result
(** The (spread, idiom, distance) grid runs through {!Exec}; results are
    bit-identical across executor backends at the same seed.  [journal]
    journals each grid point's weak count under phase ["spread"]. *)

(** {1 Ledger codecs} *)

val result : result Codec.t
