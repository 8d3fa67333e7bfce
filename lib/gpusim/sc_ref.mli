(** Sequentially consistent reference executor.

    Enumerates {e every} interleaving of a small multi-threaded program
    under sequential consistency and returns the set of reachable final
    states.  This is an oracle, implemented independently of the weak
    machine ({!Memsys}/{!Sim}), used to:

    - verify that the weak behaviours of the MP/LB/SB litmus tests are
      genuinely non-SC outcomes;
    - check (in property tests) that fully fenced programs only exhibit
      SC outcomes on the weak machine;
    - give {!Mcheck} verdicts their SC baseline ([Proved_sc] means the
      weak machine's reachable set equals this oracle's).

    Threads are straight-line: loops are rejected.  Branches and block
    barriers are supported.  Complexity is exponential in program size,
    so keep programs litmus-sized. *)

type state = {
  memory : (int * int) list;  (** observed (address, value), sorted *)
  registers : (int * string * int) list;
      (** observed (thread, register, value), sorted *)
}

val layouts : ?blocks:int array -> int -> (int * int * int * int) array
(** [layouts ?blocks n] derives per-thread launch geometry
    [(tid, bid, bdim, gdim)] from a block-membership array ([blocks.(i)]
    is the block of thread [i]; block ids are renumbered to 0.. in order
    of first appearance, threads are numbered within their block in order
    of appearance).  Defaults to one block per thread, i.e.
    [tid = 0, bid = i, bdim = 1, gdim = n].  Shared by this oracle,
    {!Mcheck} and [Sim.run_schedule] so all three agree on what thread
    [i] observes in its special registers.

    @raise Invalid_argument if [blocks] has the wrong length. *)

val run :
  ?blocks:int array ->
  threads:Kernel.t list ->
  args:(string * int) list list ->
  init:(int * int) list ->
  watch_mem:int list ->
  watch_regs:(int * string) list ->
  unit ->
  state list
(** [run ~threads ~args ~init ~watch_mem ~watch_regs] executes every
    interleaving of the given kernels (thread [i] runs [List.nth threads i]
    with arguments [List.nth args i], with the geometry of
    {!layouts}[ ?blocks n]).  [init] seeds global memory.  The result is
    the de-duplicated, sorted list of final states projected onto the
    watched locations and registers.

    A [Barrier] parks its thread until every live thread of its block is
    parked, then releases the block.  A release with exited members, or a
    barrier that can never fill (deadlock), is {e undefined} in CUDA and
    rejected here with [Invalid_argument "Sc_ref: barrier divergence"] —
    the oracle refuses to assign outcomes to undefined programs.

    A division or remainder by zero, which {!Sim} traps on, is refused
    as well: the oracle has no trapped outcome to report.

    @raise Invalid_argument on loops, shared-memory use, a zero divisor,
    or barrier divergence. *)

val allows :
  ?blocks:int array ->
  threads:Kernel.t list ->
  args:(string * int) list list ->
  init:(int * int) list ->
  state ->
  bool
(** Whether a projected final state is SC-reachable.  The state's own
    locations/registers define the projection. *)
