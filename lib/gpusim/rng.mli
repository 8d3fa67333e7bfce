(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    All randomness in the simulator and in experiment campaigns flows from
    values of type {!t}, so that any experiment is exactly reproducible from
    its seed.  The generator is mutable; use {!split} to derive independent
    streams for sub-experiments without sharing state.

    Draws allocate nothing: the 64-bit state is held unboxed, so
    {!bits30}, {!int}, {!int_in}, {!bool} and {!chance} allocate no heap
    words, and {!int64} and {!float} allocate only their boxed result
    (OCaml boxes an [int64] or [float] returned from a function that the
    caller does not inline).  The scheduler draws several times per
    simulated tick. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val reseed : t -> int -> unit
(** [reseed t seed] restarts [t] on [seed] in place: afterwards [t]'s
    stream is indistinguishable from [create seed]'s.  Lets a recycled
    simulator reuse its generator without allocating. *)

val copy : t -> t
(** [copy t] is a generator with the same current state as [t]; advancing
    one does not affect the other. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniform bits as a non-negative [int]. *)

val skip : t -> unit
(** [skip t] discards one draw: afterwards [t] is in the state that any
    single {!int64}, {!bits30}, {!float}, {!bool}, or {!chance} with
    [0 < p < 1] would leave it in, but no output is mixed.  For a draw
    whose value the caller would not use. *)

val subseed : int -> int -> int
(** [subseed seed i] is the [i]-th value of the {!bits30} stream of
    [create seed], computed purely (O(1), no shared state).  Campaign
    drivers use it to pre-derive independent per-job seeds up front, so a
    job's result is a function of [(seed, i)] alone — never of execution
    order.  Requires [i >= 0]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  [n] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t m n] returns [m] distinct values drawn uniformly
    from [\[0, n)], in random order.  Requires [0 <= m <= n]. *)
