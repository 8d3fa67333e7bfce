(** Order statistics for the benchmark's reported timings. *)

val median : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

val midmean : float list -> float
(** The mean of the middle half of the sorted samples (the quarter at
    each end dropped; all of them when fewer than four).  Unlike the
    median it does not jump between the modes of a clustered sample.
    Raises [Invalid_argument] on an empty list. *)

val tail_percentile : float list -> (float * float) option
(** The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has
    at least ten samples strictly beyond it, with its nearest-rank
    value.  [None] when even the median has fewer than ten samples
    above it: such a run reports its median only. *)
