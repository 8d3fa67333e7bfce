(** Access-sequence finding (Sec. 3.3, Tables 2 and 3).

    Every sequence σ ∈ (ld|st)+ up to length N is scored per litmus test:
    the number of weak behaviours summed over the sampled distances and
    over the first location of each critical-patch-sized region.  The
    winner is Pareto-optimal over the three tests, with the paper's
    tie-break. *)

type scored = {
  sequence : Access_seq.t;
  scores : (Litmus.Test.idiom * int) list;
  total : int;
}

type result = {
  table : scored list;  (** all sequences, sorted by descending total *)
  winner : Access_seq.t;
  patch : int;  (** the critical patch size the campaign used *)
}

val run :
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  chip:Gpusim.Chip.t ->
  seed:int ->
  budget:Budget.t ->
  patch:int ->
  unit ->
  result
(** The (sequence, idiom, distance, location) grid runs through {!Exec};
    results are bit-identical across executor backends at the same
    seed.  [journal] journals each grid point's weak count under phase
    ["seq"]. *)

(** {1 Ledger codecs} *)

val sequence : Access_seq.t Codec.t
(** An access sequence as its display string, e.g. ["ld st"]. *)

val result : result Codec.t

val rank_for :
  result -> Litmus.Test.idiom -> (int * Access_seq.t * int) list
(** [(rank, σ, score)] rows for one test, best first — the layout of
    Table 3. *)
