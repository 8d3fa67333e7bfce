(** Deterministic partitioning of an {!Exec} plan into [k/N] shards.

    Every plan index belongs to exactly one of the [N] shards, and
    per-job seeds are untouched (they are derived from the plan index
    by {!Exec.plan}), so the union of the shard runs is observationally
    identical to the unsharded run.  [rank] gives an owned index's
    position in the shard's own ledger stream; `gpuwmm merge`
    interleaves shard ledgers back into plan order.

    A shard travels with the {!Runlog.journal} it is run under, and
    only a plan of independent cells can be split this way: {!Exec.run}
    refuses a shard journal unless the caller supplies a placeholder
    for the jobs it does not own (Table 5's campaign does). *)

type t = private { k : int; n : int }
(** Shard [k] of [N] owns the plan indices congruent to [k-1] mod [N]. *)

val max_shards : int
(** Upper bound on [N] (matches the Exec jobs clamp). *)

val make : k:int -> n:int -> unit -> t
(** Raises [Invalid_argument] unless [1 <= k <= n <= max_shards]. *)

val parse : string -> (t, string) result
(** Parse ["k/N"]. *)

val to_string : t -> string
(** Canonical rendering ["k/N"]; [parse (to_string t) = Ok t]. *)

val owns : t -> total:int -> int -> bool
(** [owns t ~total i]: does this shard own plan index [i] of a
    [total]-job plan? *)

val rank : t -> total:int -> int -> int
(** Position of an owned index within the shard's own job stream
    (0-based, dense).  Raises [Invalid_argument] if the shard does not
    own the index. *)

val count : t -> total:int -> int
(** Number of indices this shard owns. *)

val indices : t -> total:int -> int list
(** The owned indices in increasing order. *)
