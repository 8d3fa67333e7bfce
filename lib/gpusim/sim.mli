(** The simulated GPU device and its host API.

    A {!t} bundles a chip profile, a seeded random stream, persistent
    global memory with a bump allocator, and an ambient {e testing
    environment}.  Application case studies are host programs written
    against this API: they allocate and initialise memory, launch kernels,
    and read results back — exactly the structure of a CUDA host program.

    The testing environment (thread-id randomisation and extra stressing
    blocks) is injected at {!launch} time without the application's
    involvement, which is what makes the paper's approach black-box: the
    application and the stress run as disjoint blocks on disjoint memory. *)

type t

(** {1 Stressing schedules}

    A stressing thread runs an endless loop whose control flow and
    addresses depend only on its ids, its launch's stress and, under
    [Random], its draws; the values it loads go nowhere, and nothing
    outside the thread reads its registers.  So it runs no kernel: it
    steps the {e tick schedule} of the stress kernel it stands for —
    which ticks are idle, which access which address, which draw from
    the device's random stream.  A schedule steps exactly the ticks of
    its kernel, in which a jump is free and every other operation costs
    one tick; so every draw, contention bump, stressing store and
    scheduling decision is the kernel's.  [test_stress] checks each shape
    tick for tick against its compiled kernel. *)

type access = [ `Load | `Store ]

type schedule = private
  | Sequence of { kinds : access array; locations : int array }
  | Random of { scratch : int; words : int }
  | Sweep of { scratch : int; words : int }

val sequence : access array -> locations:int array -> schedule
(** The tuned loop of [Sys], [Fixed] and [Targeted] stress: the access
    kinds a1..aL applied to one of the [n] absolute [locations].
    Stressing thread [j], counted from 0 in block order, stresses
    location [j mod n].  The thread first idles [n + 2] ticks (its
    kernel's [which], [n] location tests and [addr] assignment), then
    repeats one idle tick (the [while 1] test) and [L] access ticks; the
    first access of every iteration is a loop boundary.  Keeps both
    arrays, which must not change afterwards.  Raises [Invalid_argument]
    on an empty [locations]. *)

val random : scratch:int -> words:int -> schedule
(** The loop of [Rand] stress, five ticks per iteration: the loop test;
    [r := Memsys.rand (2 * words)], drawn from the device's stream at
    that tick; the address; the parity test; then a load of [scratch +
    r / 2] when [r] is even, a store when it is odd.  No boundaries. *)

val sweep : scratch:int -> words:int -> schedule
(** The loop of [Cache] stress.  Each pass is the loop test and [i :=
    0], then [words] times (the test [i < words], a load of [scratch +
    i], a store to it, [i := i + 1]), then the failing test.  No
    boundaries. *)

(** Extra stressing blocks appended to a launch.  Built by the stressing
    strategies of the core library.  A stressing access is bounds-checked
    like an application's (an out-of-bounds one traps the launch) and
    goes through {!Memsys.stress_access}: a store writes the thread's
    global id, and the access counts in {!Memsys.stress_accesses}. *)
type stress_spec = {
  schedule : schedule;  (** what every stressing thread steps *)
  blocks : int;
  block_size : int;
  warmup : int;
      (** scheduler ticks given exclusively to the stressing blocks before
          application threads start, modelling stress that is already
          saturating the memory system when the kernel's work begins *)
  intensity : float;
      (** contention multiplier compensating for the scheduler's
          serialisation: on hardware, threads concentrated on a few
          locations apply pressure in parallel.  Computed by the stressing
          strategies from the thread-per-location count. *)
}

type environment = {
  randomise : bool;
      (** permute logical thread ids, respecting block and warp
          membership (Sec. 3.5) *)
  make_stress : t -> app_grid:int -> app_block:int -> stress_spec option;
      (** invoked at each launch to build the stressing blocks; receives
          the application's launch dimensions (the paper sizes stress as
          15-50% of the application's blocks) *)
}

val no_environment : environment

val create : ?words:int -> chip:Chip.t -> seed:int -> unit -> t
(** A fresh device with [words] (default 65536) of zeroed global memory. *)

val reset : t -> seed:int -> unit
(** Rewind a device to the state [create] with the same [words] and
    [chip] and the given [seed] would produce — zeroed memory, rewound
    allocator, default environment, reseeded random stream, cleared
    counters — reusing every internal buffer.  The basis of simulator
    recycling: running a workload on a reset device is bit-identical to
    running it on a fresh one. *)

val with_sim : ?words:int -> chip:Chip.t -> seed:int -> (t -> 'a) -> 'a
(** [with_sim ~chip ~seed f] borrows the calling domain's recycled
    simulator for this [(chip, words)] class — {!reset} to [seed] — and
    runs [f] on it.  Observably identical to
    [f (create ?words ~chip ~seed ())] but without re-creating the
    device: campaign hot paths run thousands of short executions per
    second, and the per-run allocation drops to (almost) the run itself.
    Each domain has its own arena, so parallel jobs never share a
    device.  Re-entrant borrows and ad-hoc chip values fall back to a
    fresh throwaway instance. *)

val chip : t -> Chip.t
val rng : t -> Rng.t
val mem : t -> Memsys.t

val set_environment : t -> environment -> unit

(** {1 Host memory operations} *)

val alloc : t -> int -> int
(** [alloc t n] reserves [n] words and returns the base address, aligned
    to the chip's patch size (allocations start at partition boundaries,
    like page-aligned CUDA allocations). *)

val read : t -> int -> int
val write : t -> int -> int -> unit
val fill : t -> base:int -> len:int -> int -> unit
val read_array : t -> base:int -> len:int -> int array
val write_array : t -> base:int -> int array -> unit

(** {1 Kernel launch} *)

type outcome =
  | Finished
  | Timeout  (** exceeded the tick budget (the paper's 30 s timeout) *)
  | Trapped of string  (** out-of-bounds access, division by zero, ... *)

type result = {
  outcome : outcome;
  barrier_divergence : bool;
      (** a block barrier was released because a thread exited — undefined
          behaviour in CUDA, reported as an error *)
  metrics : Metrics.t;
}

val launch :
  t ->
  ?max_ticks:int ->
  ?shared_words:int ->
  grid:int ->
  block:int ->
  Kernel.t ->
  args:(string * int) list ->
  result
(** Run a kernel to completion under the ambient environment.  [grid] and
    [block] must be positive; [block] at most 1024.  All pending memory
    operations are globally visible when [launch] returns. *)

val elapsed_cycles : t -> int
(** Modelled runtime (cycles) accumulated over every launch on this
    device — the simulator's analogue of timing kernels with CUDA
    events. *)

val consumed_energy : t -> float
(** Modelled energy accumulated over every launch (the analogue of the
    paper's NVML-based estimates). *)

val reorders : t -> int
(** Cumulative out-of-order commits observed on this device (a diagnostic
    for how much weak behaviour executions exhibited). *)

val bitflips : t -> int
(** Cumulative injected soft errors (store-commit bit flips) on this
    device; 0 unless soft-error injection was armed at {!create} time via
    {!set_soft_error_default}. *)

(** {1 Ambient fault-injection and supervision hooks}

    Process-wide configuration consulted by every device, installed by
    the supervision layer without widening application signatures. *)

val set_poll_hook : (unit -> unit) option -> unit
(** Install a cooperative cancellation point: the scheduler loop calls
    the hook every 1024 ticks.  A hook that raises aborts the launch (the
    exception propagates out of {!launch}).  [Core.Exec]'s supervision
    installs one while a timeout is armed, so an attempt past its
    deadline cancels itself, since OCaml domains cannot be killed. *)

val set_soft_error_default : (float * int) option -> unit
(** [set_soft_error_default (Some (rate, fault_seed))] arms gpuFI-style
    transient soft errors on every {e subsequently created} device: each
    committing plain store flips one bit of its value with probability
    [rate], drawn from a dedicated rng derived from [fault_seed] and the
    device seed (so flips are deterministic per device and the simulated
    schedule is unperturbed).  [None] (the default) disarms. *)

val trace : t -> Trace.t
(** The device's trace sink (shared with its {!Memsys}).  Enable a ring
    buffer on it before {!launch} to capture the execution's event
    stream ({!Trace.enable}), or subscribe observers — {!Diagnosis} and
    {!Race} attach this way.  Inactive (and free) by default. *)

(** {1 One stressing thread alone} *)

type stress_event =
  | Idle
  | Access of { kind : access; addr : int; boundary : bool }

val stress_ticks :
  t -> schedule -> thread:int -> int -> (stress_event -> unit) -> unit
(** [stress_ticks t schedule ~thread n f] steps stressing thread [thread]
    (counted from 0 in block order) of [schedule] alone for [n] ticks,
    with the step {!launch} uses, and calls [f] after each tick with
    what the tick did.  A [Random] draw comes from [t]'s random stream;
    nothing else of [t] is touched.  The reference point of the
    schedules' tick-for-tick test. *)

(** {1 Deterministic fixed-schedule replay} *)

val run_schedule :
  t ->
  ?blocks:int array ->
  threads:Kernel.t list ->
  args:(string * int) list list ->
  watch_mem:int list ->
  watch_regs:(int * string) list ->
  Mcheck.step list ->
  Sc_ref.state * int
(** [run_schedule t ~threads ~args ~watch_mem ~watch_regs schedule]
    replays an {!Mcheck} witness schedule on this device's memory
    system: the schedule, not the rng, decides every thread step
    ([Sstep]) and every store-buffer commit ([Scommit], via
    {!Memsys.commit_nth}), so the replay is bit-deterministic and
    independent of the device seed.  Thread [i] of [threads] runs with
    geometry {!Sc_ref.layouts}[ ?blocks] against the device's current
    global memory (initialise it with {!write} first).  Returns the
    final state projected on the watch sets — for a valid witness,
    exactly [witness.state] — and the number of reorderings performed —
    exactly [witness.reorders].

    Programs are restricted as in {!Mcheck} (no loops, shared memory or
    random expressions); soft-error injection must be disarmed for the
    replay to match the checker.

    @raise Failure if the schedule is invalid for the program: stepping
    a finished, draining, parked or load-blocked thread, committing out
    of range, barrier divergence, or ending before every thread has
    finished with an empty queue. *)
