(** The weak global-memory subsystem.

    Every thread owns a FIFO of {e pending} global-memory operations.
    Operations enter the FIFO at issue and take effect (commit) later,
    possibly out of program order, under these rules:

    - entries that map to the same memory {e partition} commit in FIFO
      order (so same-address operations are coherent, and two locations
      within one critical patch can never be observed out of order);
    - the probability that a commit attempt is deferred grows with the
      contention of the entry's partition — this is the lever that memory
      stressing pulls;
    - reading a register whose value comes from a pending load forces that
      load to resolve immediately (dependency ordering);
    - atomics take effect immediately but do not drain the FIFO;
    - fences drain the issuing thread's FIFO; a barrier drains a whole
      block (the caller enumerates the block's threads).

    Contention is tracked per partition in two pools (read and write
    traffic).  Stressing accesses feed the pools through a chip-specific
    response to the access kind and the preceding access pattern
    ({!Chip.traffic}), which is what makes some stressing sequences far
    more effective than others (Sec. 3.3 of the paper). *)

type t

type pending
(** A handle to a pending load. *)

val no_pending : pending
(** A sentinel that {!load} never returns: a register file marks a
    register holding a value with it.  Compare it with [==]. *)

val create : chip:Chip.t -> rng:Rng.t -> words:int -> nthreads:int -> t
(** A fresh subsystem with [words] of zeroed global memory and state for
    thread ids [0 .. nthreads-1].  When the chip is strong
    ([Chip.sequential]), all operations below degrade to immediate
    sequentially-consistent accesses. *)

val strong : t -> bool

(** {1 Host access (outside any launch)} *)

val read : t -> int -> int
val write : t -> int -> int -> unit
val words : t -> int

val partition : t -> int -> int
(** [partition t addr] is [Chip.partition chip addr] for [addr >= 0], by
    shift and mask when the patch size and the partition count are powers
    of two (every profile in {!Chip.all}). *)

val set_stress_gain : t -> float -> unit
(** Per-launch multiplier applied to stressing contention (models the
    parallel pressure of threads concentrated on few locations). *)

val reset_threads : t -> nthreads:int -> unit
(** Prepare for a new launch: fresh pending queues for thread ids
    [0 .. nthreads-1], cleared contention pools and pattern state.  Global
    memory contents persist across launches.  The queues are preallocated
    slot arrays reused across launches, so this allocates only when the
    thread count grows past its high-water mark. *)

val reset_device : t -> unit
(** Return the subsystem to its just-created state — zeroed global memory,
    empty queues and pools, sequence and contention clocks at zero,
    counters cleared, soft errors disarmed, trace sink reset — while
    keeping every internal buffer for reuse.  Combined with a fresh rng
    seed this makes a recycled subsystem behaviourally indistinguishable
    from a newly created one, at near-zero allocation cost.  Only the
    prefix of memory up to the highest address written since the last
    reset is zeroed: every write (host, commit, strong-chip store,
    atomic, stressing store) raises that mark. *)

(** {1 Device operations} *)

val load : t -> tid:int -> addr:int -> pending
(** Issue a load; the result is unresolved until forced or committed. *)

val resolved : pending -> bool
(** Whether a pending load has its value (committed or forced). *)

val force : t -> tid:int -> pending -> int
(** Resolve a pending load now: forward from the newest older pending
    store of the same thread to the same address, else read memory.
    Idempotent. *)

val store : t -> tid:int -> addr:int -> value:int -> unit
(** Issue a store.  If the thread's FIFO is at capacity the oldest entry
    is committed first. *)

val atomic : t -> tid:int -> addr:int -> (int -> int) -> int
(** [atomic t ~tid ~addr f] atomically replaces [m] by [f m] and returns
    the previous value [m].  Pending same-address entries of [tid] are
    committed first so the atomic observes its own program-order past. *)

val drain : t -> tid:int -> int
(** Commit all pending entries of [tid] in sequence order (a fence).
    Returns the number of entries drained. *)

val drain_step : t -> tid:int -> bool
(** Commit at most one eligible entry of [tid], ignoring contention delay
    (used while a thread is stalled at a fence so that fence latency grows
    with queue occupancy).  Returns [true] when the FIFO is now empty. *)

val pending_count : t -> tid:int -> int
(** Number of pending entries of [tid].  O(1). *)

val commit_nth : t -> tid:int -> n:int -> unit
(** Commit the [n]-th pending entry of [tid] in FIFO order ([n = 0] is
    the oldest).  Deterministic replay hook for model-checker witness
    schedules ({!Sim.run_schedule}): the reorder/forwarding semantics
    are exactly those of the background committer, with the
    contention-delay dice removed.

    @raise Invalid_argument if [n] is outside [0 .. pending_count - 1]. *)

val attempt_commits : t -> tid:int -> unit
(** Background commit: for each partition-head entry of [tid], commit
    unless deferred by the contention-dependent delay. *)

val any_pending : t -> bool

val random_background_drain : t -> unit
(** Pick one thread that has pending entries and {!attempt_commits} on it;
    models the memory system draining buffers of descheduled threads. *)

(** {1 Contention} *)

val stress_access : t -> sid:int -> kind:[ `Load | `Store ] -> addr:int -> boundary:bool -> unit
(** Record a stressing access: touches memory and feeds the partition's
    contention pools through the chip's traffic response.  [sid] indexes
    per-stress-thread pattern state (previous kind, run length);
    [boundary] marks the first access of a stressing-loop iteration. *)

val app_access : t -> kind:[ `Load | `Store ] -> addr:int -> unit
(** Contention contribution of an ordinary application access (weaker than
    stressing, no pattern state). *)

val contention : t -> part:int -> kind:[ `Load | `Store ] -> float
(** Effective contention seen by a pending entry of the given kind in
    partition [part] (includes the cross-pool term). *)

(** {1 Bookkeeping} *)

val sink : t -> Trace.t
(** The device's trace sink.  The subsystem emits {!Trace.Access} (every
    application global access at issue), {!Trace.Issue} and
    {!Trace.Commit} (pending-entry lifecycle), {!Trace.Reorder} (every
    out-of-order commit, including atomics bypassing older pending
    operations) and {!Trace.Atomic_rmw} through it; {!Sim} shares the
    same sink for launch-level events.  Nothing is emitted (or
    allocated) while the sink is inactive. *)

val now : t -> int
(** The contention clock: monotone over the device's lifetime (never
    reset between launches), used as the trace timestamp. *)

val reorders : t -> int
(** Total out-of-order commits so far. *)

val stress_accesses : t -> int
(** Total stressing accesses performed (a campaign statistic). *)

(** {1 Soft-error injection} *)

val set_soft_errors : t -> (Rng.t * float) option -> unit
(** Arm (or disarm) transient soft errors: each committing plain store
    flips one low bit of its value with the given probability, drawn from
    the given {e dedicated} rng — never the device rng, so the simulated
    schedule is identical with and without injection; only stored values
    differ.  Every flip bumps {!bitflips} and emits {!Trace.Bitflip}.
    Atomics and host writes are never flipped (flipping a lock word would
    wedge the machine rather than model a data soft error). *)

val bitflips : t -> int
(** Total injected bit flips so far (0 unless armed). *)

val tick : t -> unit
(** Advance the contention clock by one scheduler step. *)

val rand : t -> int -> int
(** Device-side uniform random value in [\[0, bound)] ([0] if the bound is
    not positive); backs the kernel language's [Rand] expression. *)
