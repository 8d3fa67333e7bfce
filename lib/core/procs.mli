(** The worker supervisor behind both [gpuwmm test|table 5 -j N] and the
    [gpuwmm serve] daemon.

    OCaml 5 domains share a stop-the-world minor collector, so the
    domain pool does not scale for allocation-heavy simulation; worker
    {e subprocesses} (self-exec with [--shard k/N]) each get their own
    runtime.  One lease loop ({!tick}) drives them over a {!Queue.state}:
    it spawns a worker per leasable shard, reaps exits, kills deadline
    overruns and heartbeat-dead workers, trusts exit 0 only when the
    shard ledger verifies, requeues failures after {!Queue.backoff_s}
    (resuming from a validated ledger prefix) and quarantines a shard
    after its attempt budget.  The daemon persists every {!Queue.event}
    to its journal; {!fan_out} runs the same loop on one in-memory job.

    Uses stdlib [Unix] only.  Safe in the presence of domains because
    [Unix.create_process_env] forks and execs atomically. *)

type status =
  | Completed  (** the shard ledger is whole *)
  | Degraded
      (** whole, with quarantined jobs under [--keep-going] (exit 3) *)
  | Failed of string
      (** quarantined after its attempt budget; whatever jobs its ledger
          holds are still cached, the rest re-run in the parent *)

type outcome = {
  k : int;
  path : string;  (** the shard's ledger file *)
  status : status;
  respawns : int;  (** failed attempts behind this shard *)
}

val shard_paths : ?log:string -> n:int -> unit -> string list
(** Ledger path per shard [1..n]: [LOG.shard<k>] next to a requested
    [--log] (durable, uploadable artifacts), fresh temp files
    otherwise. *)

val child_env : n:int -> string array
(** The environment workers are spawned with: the parent's environment
    plus [GPUWMM_GC] set to [default_minor_heap_words / n] (floored at
    1 MiB) unless the operator pinned it. *)

val describe_exit : Unix.process_status -> string
(** Human-readable process status ("exited 0", "killed by signal 9"),
    with OCaml's internal signal numbers translated to the conventional
    Linux ones (signals 1-15 are uniform across POSIX systems;
    SIGCHLD/SIGCONT/SIGSTOP/SIGTSTP use the Linux x86-64 numbering). *)

(** {1 The lease loop} *)

type verdict =
  | Whole of { degraded : bool }
      (** footer present and the header matches the campaign *)
  | Prefix  (** header matches, no footer: resumable with [--resume] *)
  | Unusable  (** missing, unreadable or another campaign's ledger *)

val check_ledger :
  campaign:string -> seed:int -> grid:Json.t -> k:int -> n:int -> string ->
  verdict
(** Fail-closed inspection of shard [k/n]'s ledger at a path: it loads,
    and passes the same {!Runlog.validate_resume} as [--resume]. *)

type shard = {
  argv : string list;  (** the worker's full argv, [argv.(0)] included *)
  ledger : string;  (** its ledger; heartbeats are read beside it *)
  check : unit -> verdict;
}

type t

val default_attempts : int
(** 3: lease attempts before a shard quarantines. *)

val default_backoff_base_s : float
(** 0.5 s: base of the requeue backoff schedule. *)

val create :
  ?exe:string ->
  ?log:(string -> unit) ->
  max_workers:int ->
  lease_s:float ->
  backoff_base_s:float ->
  state:(unit -> Queue.state) ->
  emit:(Queue.event -> unit) ->
  (Queue.spec -> int -> shard) ->
  t
(** A supervisor over the caller's queue.  [state] reads it; [emit]
    must apply the event to it before returning (after persisting it,
    for a durable queue).  The last argument describes shard [k] of a
    job.  [exe] defaults to [Sys.executable_name]; [log] receives one
    line per lease decision. *)

val tick : t -> unit
(** One pass of the loop: reap exited workers ([WNOHANG]); settle exit
    0 as [Shard_done] only when the shard's [check] says [Whole], exit
    3 as degraded, anything else as a failure; kill a worker past its
    lease deadline or whose heartbeat stream ({!Heartbeat.latest} of
    its pid) is {!Heartbeat.classify}d [Dead]; requeue a failure after
    {!Queue.backoff_s} or quarantine it after [max_attempts]; then
    lease ripe shards ({!Queue.next_lease}) up to [max_workers].  A
    retried shard whose ledger is [Whole] is marked done without a
    worker; otherwise its worker gets [GPUWMM_RESPAWN=<failed
    attempts>] and, when the ledger is a [Prefix], [--resume <ledger>].
    Workers run with stdout/stderr on [/dev/null], stdin on the write
    end of a close-on-exec pipe whose read end {!wait} watches, and the
    environment of {!child_env}. *)

val wait : t -> unit
(** Block until the loop may have work: a worker's stdin pipe reads EOF
    (it is exiting; the next {!tick}'s [waitpid] still decides, and an
    EOF'd worker is re-checked every millisecond until reaped), {!wake}
    is called, or the 0.1 s liveness cadence elapses (lease deadlines,
    heartbeat staleness, backoff gates, a worker that exits while a
    grandchild holds its pipe).  Callers alternate {!tick} and [wait]. *)

val wake : t -> unit
(** Make the current or next {!wait} return at once.  Safe from another
    domain and from a signal handler; a no-op after {!stop}. *)

val stop : t -> unit
(** SIGTERM every live worker, wait up to 5 s for them (woken by their
    exits), SIGKILL the rest, then close the supervisor's descriptors.
    No event is emitted: the queue still holds their leases.  Idempotent. *)

val fan_out :
  ?exe:string ->
  campaign:string ->
  seed:int ->
  grid:Json.t ->
  n:int ->
  paths:string list ->
  argv_of:(k:int -> path:string -> string list) ->
  unit ->
  outcome list
(** Run one job of [n] shards through the lease loop in memory — no
    journal, no HTTP, no lease deadline, {!default_attempts} attempts,
    {!default_backoff_base_s} backoff — with worker [k] started as
    [argv_of ~k ~path] on ledger [path] and verified by {!check_ledger}
    against [campaign], [seed] and [grid].  Blocks until every shard is
    done or quarantined, emitting a fleet progress line
    ({!Fleetview.summary_line} over the workers' heartbeat sidecars; a
    blind ledger-tail count until the first beat) about once a second
    through {!Exec.info}.  If it unwinds (an {!Exec.Interrupted}
    signal), {!stop} runs before the exception propagates. *)

val merged_cache : string list -> Runlog.cache
(** Union resume cache over the shard ledgers that load (torn tails
    dropped, unreadable ledgers skipped with a notice) — the parent's
    final pass replays cached jobs and re-executes only what the
    workers failed to flush. *)

val cleanup : string list -> unit
(** Best-effort removal of temp shard ledgers and their observability
    sidecars ([.hb] heartbeats, [.spans.json] traces). *)
