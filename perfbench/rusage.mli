(** getrusage(2): CPU time and peak resident set of this process and of
    its reaped descendants. *)

type t = { utime : float; stime : float; maxrss_kib : int }

val self : unit -> t
val children : unit -> t
(** Every descendant that has been waited for, transitively. *)

val cpu_s : t -> float

val cpu_total : unit -> float
(** User + system seconds of this process and its reaped descendants. *)

val peak_rss_mb : unit -> float
(** The largest resident set of any single process so far: this one or
    a reaped descendant (Linux reports the largest child, not a sum). *)
