(** The worker supervisor of the [gpuwmm serve] daemon.

    [gpuwmm test|table -j N] runs on the in-process domain pool
    ({!Exec.Parallel}); only the daemon runs campaigns as worker
    {e subprocesses} (self-exec with [--shard k/N]), because a process
    can be isolated: a leased shard whose worker crashes, wedges or
    overruns its lease is killed, requeued and resumed from its ledger
    prefix while the rest of the campaign runs on.  One lease loop
    ({!tick}) drives the workers over a {!Queue.state}: it spawns a
    worker per leasable shard, reaps exits, kills deadline overruns and
    heartbeat-dead workers, trusts exit 0 only when the shard ledger
    verifies, requeues failures after {!Queue.backoff_s} (resuming from
    a validated ledger prefix) and quarantines a shard after its
    attempt budget.  The daemon persists every {!Queue.event} to its
    journal before applying it.

    Uses stdlib [Unix] only.  Safe in the presence of domains because
    [Unix.create_process_env] forks and execs atomically. *)

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
    supervisor's own environment. *)

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
