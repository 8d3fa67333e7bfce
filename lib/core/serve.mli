(** The [gpuwmm serve] daemon: a crash-surviving campaign service.

    [run] turns the process into a long-lived server that accepts
    campaign submissions over HTTP ([POST /submit]), decomposes each
    into one shard-ledger work unit per worker ({!Shard} semantics,
    identical to [gpuwmm test --shard k/N]), and executes them under
    {e leases with deadlines}: the {!Procs} lease loop hands every work
    unit to a worker subprocess, and a worker that exits abnormally,
    overruns its lease deadline, or stops heartbeating
    ({!Heartbeat.classify} = [Dead]) has its shard requeued with capped
    exponential backoff ({!Queue.backoff_s}) and quarantined as failed
    after the submission's attempt budget.

    Durability is the {!Queue} journal: every transition is an
    append-only event, so killing the daemon at {e any} point loses
    nothing durably recorded.  On restart the journal replays;
    completed shards are recognised from their ledgers with the same
    fail-closed validation as [--resume] ({!Runlog.validate_resume}),
    in-flight leases are revoked and requeued, and a finished
    campaign's shards are merged with the byte-identical
    {!Merge.merge} path — submit, crash anything, restart: the merged
    ledger is the one a single uninterrupted process would have
    written (under [GPUWMM_LEDGER_DETERMINISTIC], byte for byte).

    Observability rides the same endpoints as a plain campaign:
    [/metrics] (Prometheus text: queue depth, lease ages, retry and
    quarantine totals, fleet gauges), [/status] (JSON: per-campaign
    progress plus the live worker fleet), [/jobs] (the queue),
    [/healthz].  The [gpuwmm submit] and [gpuwmm jobs] subcommands are
    thin {!Httpd.fetch} clients of these routes. *)

type config = {
  dir : string;  (** state directory: journal, ledgers, heartbeats *)
  addr : string;
  port : int;  (** [0] picks a free port (printed on the banner) *)
  exe : string;  (** worker executable, normally [Sys.executable_name] *)
  max_workers : int;  (** concurrent leases across all campaigns *)
  lease_s : float;  (** lease deadline; an overrun worker is killed *)
  backoff_base_s : float;  (** base of the requeue backoff schedule *)
  max_attempts : int;  (** default attempt budget per submission *)
  until_idle : bool;
      (** exit once every submitted campaign reaches a terminal state
          (the CI drill mode); otherwise serve until SIGTERM/SIGINT *)
  quiet : bool;
}

val default : config
(** [dir "."], loopback, port [0], [Sys.executable_name], 2 workers,
    30 s leases, 0.5 s backoff base, 3 attempts, serve forever. *)

val run : config -> int
(** Run the daemon until a signal (or, with [until_idle], until the
    queue drains).  Returns the process exit code: [0] when every
    campaign finished clean (or the daemon was stopped mid-queue by a
    signal), [3] when [until_idle] drained the queue but some campaign
    finished degraded or failed, [1] when the journal is corrupt
    (fail-closed, like [--resume]) or the port cannot be bound.

    The loop blocks in {!Procs.wait}: a worker's exit, a submission or
    a signal wakes it at once, and the 0.1 s cadence only serves
    liveness, lease deadlines and backoff gates.  [max_workers] must
    not exceed {!Exec.max_jobs} (each worker's pipe is [select]ed).

    SIGTERM/SIGINT stop gracefully: the HTTP server stops, leased
    workers get SIGTERM (their own handlers flush a resumable ledger
    prefix and a final heartbeat), and the journal is left for the next
    start to replay. *)

val parse_submission :
  default_max_attempts:int -> string -> (Queue.spec, string) result
(** Validate a [POST /submit] body: a JSON object with [chip]
    (required), [app], [runs], [env], [seed], [workers] (1 to
    {!Shard.max_shards}), [priority] and [max_attempts]; [kind] must be
    ["test"].  The returned spec's [id] is [""], assigned on enqueue. *)

val shard_count : Queue.spec -> int
(** The shards a campaign is enqueued with: its [workers], but no more
    than its cells, so no shard worker is spawned without a job.  The
    [/submit] response reports this count as [workers]. *)
