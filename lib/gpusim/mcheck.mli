(** Bounded stateless model checking of the weak machine.

    Where the stress campaigns sample schedules of {!Sim} at random —
    exposing weak behaviours but never proving their absence — this
    module enumerates them: every interleaving of thread steps {e and}
    every choice of store-buffer commit point of {!Memsys}, up to a
    bound on the number of reorderings (commits that overtake an older
    pending entry).  The semantics mirror the simulator's memory system
    exactly — partition-head commit eligibility, same-thread load
    forwarding, fence drains, capacity eviction, atomic pre-commit,
    barrier release drains — with the contention-delay dice replaced by
    explicit nondeterminism, so:

    - the reachable final states are a superset of what any seeded
      {!Sim} run can produce on the same chip (cross-validation:
      campaign-observed outcomes must appear here);
    - every explored schedule replays bit-identically through
      [Sim.run_schedule], which is how witnesses are validated.

    Exploration uses sleep-set dynamic partial-order reduction
    (enabled by default): commutations of independent transitions —
    disjoint-footprint memory effects of different threads — are pruned
    while preserving the full set of terminal states, typically
    shrinking litmus-sized state spaces by orders of magnitude (the
    [stats] record exposes the pruning so tests can assert it).

    Program restrictions are those of {!Sc_ref} (the SC baseline the
    verdict compares against): no loops, no shared memory, no random
    expressions; barriers are supported, barrier divergence is
    rejected.  A division or remainder by zero, which {!Sim} traps on,
    is refused on any explored schedule. *)

type step =
  | Sstep of int  (** thread [tid] executes its next statement *)
  | Scommit of int * int
      (** thread [tid] commits its [n]-th pending entry (FIFO order) *)

type program = {
  threads : Kernel.t list;
  args : (string * int) list list;
  blocks : int array option;
      (** block membership per thread ({!Sc_ref.layouts}); [None] means
          one block per thread *)
  init : (int * int) list;  (** initial global memory *)
  watch_mem : int list;
  watch_regs : (int * string) list;
}

type witness = {
  state : Sc_ref.state;  (** final state, projected on the watch sets *)
  schedule : step list;  (** complete schedule from launch to quiescence *)
  reorders : int;  (** reorderings the schedule performs *)
}

type stats = {
  explored : int;  (** transitions executed *)
  sleep_pruned : int;  (** transitions skipped by the sleep sets *)
  bound_pruned : int;  (** branches cut by the reordering bound *)
  completed : int;  (** complete schedules reached *)
  roots : int;  (** transitions enabled at launch *)
}

type verdict =
  | Proved_sc
      (** every reachable final state is SC-reachable: no weak behaviour
          under the given reordering bound *)
  | Weak of witness list
      (** the non-SC states, each with a replayable witness schedule *)

type result = {
  verdict : verdict;
  reachable : witness list;  (** all final states, sorted, with witnesses *)
  sc_states : Sc_ref.state list;  (** the {!Sc_ref.run} baseline *)
  stats : stats;
}

val check :
  chip:Chip.t ->
  max_reorderings:int ->
  ?dpor:bool ->
  ?words:int ->
  ?fuel:int ->
  program ->
  result
(** Explore every schedule of [program] on [chip] with at most
    [max_reorderings] reorderings, in one depth-first search from the
    launch state.  [?dpor] (default [true]) toggles the sleep-set
    reduction — verdicts are identical either way, only [stats] differ.
    [?words] (default 2048) bounds global addresses; [?fuel] (default
    10M transitions) guards against state-space blowups with
    [Failure].

    The SC baseline {!Sc_ref.run} always includes schedules with zero
    reorderings, so [reachable] is a superset of [sc_states] and
    [Proved_sc] means the two sets are equal.

    @raise Invalid_argument on loops, shared memory, random
    expressions, out-of-bounds accesses, a zero divisor or barrier
    divergence. *)

val pp_step : Format.formatter -> step -> unit
(** ["S<tid>"] for steps, ["C<tid>.<n>"] for commits. *)

val schedule_to_string : step list -> string
(** Space-separated {!pp_step} tokens. *)
