(** Deterministic plan/execute/reduce engine for campaign drivers.

    Every campaign in this repository is a large grid of independent
    simulated executions; the paper's methodology is throughput-bound
    (~0.5 billion litmus executions for tuning, an hour of application
    runs per Table 5 cell).  This module decouples {e what} a campaign
    computes from {e how} its jobs are scheduled:

    {ol
    {- {b Plan}: the driver flattens its parameter grid into a list of
       payloads; {!plan} assigns each job a pre-derived seed
       ([Rng.subseed master_seed index]), so a job's result is a pure
       function of [(seed, payload)] — never of execution order.}
    {- {b Execute}: one loop runs the jobs of {!map}, {!run} and
       {!for_all} on a pool of OCaml 5 domains pulling index chunks from
       a shared atomic work queue.  The {!backend} sizes the pool:
       [Serial] is the pool with the calling domain as its only worker,
       [Parallel n] adds helper domains.  Supervision ({!set_supervision}),
       telemetry and spans apply to every job of every entry point.}
    {- {b Reduce}: results are returned in plan order regardless of
       completion order, so drivers merge them back into their result
       types deterministically.}}

    {b Guarantee}: for a pure job function, [Parallel n] output is
    bit-identical to [Serial] at the same seed, for every [n] (enforced
    by property tests in [test/test_exec.ml]).

    The engine also owns progress reporting (jobs completed, execs/sec);
    drivers no longer thread ad-hoc [~progress] callbacks. *)

type backend =
  | Serial  (** the calling domain alone runs the jobs, in plan order *)
  | Parallel of int
      (** [Parallel n]: a pool of [n] domains (the caller participates),
          or as many as the runtime's domain limit still allows (128 live
          domains in OCaml 5.1); [Parallel 1] is [Serial] *)

val max_jobs : int
(** 512 — the upper bound of the sane [--jobs] range. *)

val clamp_jobs : ?warn:bool -> int -> int
(** Clamp a jobs value into [1 .. max_jobs].  Logs a warning when the
    value actually changes (suppressed with [~warn:false]). *)

val backend_of_jobs : int -> backend
(** [backend_of_jobs n] is [Serial] when [n <= 1], else [Parallel n] with
    [n] silently clamped to {!max_jobs}. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the CLI's [--jobs] value when
    neither the flag nor its environment variable is set. *)

val tune_gc : unit -> unit
(** A no-op, kept for callers that still invoke it.  Every backend runs
    at the runtime's default GC settings: now that the simulator's
    per-tick path allocates little, a 16 MiB minor heap no longer speeds
    up the measured campaigns and costs resident memory in every domain
    (DESIGN.md §6a). *)

type 'a job = {
  index : int;  (** position in the plan, [0..n-1] *)
  seed : int;  (** [Rng.subseed master_seed index], derived up front *)
  payload : 'a;
}

val plan : seed:int -> 'a list -> 'a job list
(** Pair each payload with its plan index and pre-derived seed.  The
    seed sequence equals the [Rng.bits30] stream of
    [Rng.create seed] — exactly what the drivers' former sequential
    loops drew, so planned campaigns reproduce historical results. *)

val map :
  ?backend:backend ->
  ?label:string ->
  ?execs_per_job:int ->
  f:('a job -> 'b) ->
  'a job list ->
  'b list
(** Execute all jobs and return their results in plan order.  [f] must
    be pure (up to its own fresh simulator state) for the backend
    guarantee to hold.  [label] names the campaign in progress messages
    and in recorded spans; [execs_per_job] scales the reported execs/sec
    throughput.  An exception raised by any job is re-raised after the
    pool drains.  Under an installed {!set_supervision} policy each job
    is retried and timed out as in {!run}; a job that exhausts its
    attempts raises {!Job_failed}, since [map] has no fallback value.

    Every completed job bumps the [exec.jobs] counter and the
    [exec.run_seconds] / [exec.queue_wait_seconds] histograms in
    {!Telemetry}; when {!Telemetry.set_spans} is on, each job also
    records a span with its worker slot and schedule.  Instrumentation
    never affects results. *)

type failure = {
  f_label : string;  (** campaign label (or ["map"], ["run"], ["for_all"]) *)
  f_index : int;  (** plan index of the poison job *)
  f_seed : int;
  f_attempts : int;  (** attempts consumed, including the first *)
  f_reason : string;  (** printed exception or timeout description *)
  f_timed_out : bool;
}
(** A job that exhausted its supervised attempts (see {1:supervision}
    Supervision below). *)

val run :
  ?backend:backend ->
  ?label:string ->
  ?execs_per_job:int ->
  ?journal:Runlog.journal ->
  ?codec:'b Runlog.codec ->
  ?quarantine:('a -> failure -> 'b) ->
  ?shard_placeholder:('a -> 'b) ->
  seed:int ->
  f:(seed:int -> 'a -> 'b) ->
  'a list ->
  'b list
(** [run ~seed ~f payloads]: the common plan-then-execute composition.

    With [~journal] (which requires [~codec]), the run is {e journaled}:
    every completed job appends a record to the journal's {!Runlog}
    sink, in plan order regardless of completion order, and jobs found
    in the journal's resume cache are replayed from their recorded
    payloads instead of executing — [f] is never called for them.  When
    {e every} job is cached the pool (and watchdog) is never started at
    all.  Raises [Failure] if a cached record's seed disagrees with the
    plan (resuming a ledger from a different campaign) rather than
    silently mixing results.

    With [~codec] the progress line additionally reports the error rate
    so far ([codec.errors_of] summed over completed jobs, scaled by
    [execs_per_job]).

    Under an installed {!set_supervision} policy, each job runs as a
    bounded sequence of attempts (timeout-cancelled, retried at once
    with the {e same} seed so a successful retry is bit-identical to a
    fault-free run).  A job whose attempts are exhausted is
    {e quarantined} when the policy says [keep_going] and [~quarantine]
    provides a fallback value:
    a [failed] record is written to the journal, the failure is added to
    the degradation summary ({!drain_summary}) and the campaign
    continues.  Without [keep_going] (or without a fallback) the engine
    raises {!Job_failed}.

    Under a journal whose [shard] is [k/N], only the owned slice of the
    plan is executed and journalled, each record keyed at its dense
    shard-local flush rank ({!Shard.rank}) so the shard ledger streams
    gap-free; per-job seeds are the unsharded ones.  The other result
    slots are filled with [shard_placeholder] (cheap, never journalled),
    and [gpuwmm merge] reassembles the true values from the sibling
    shards.  A shard journal without [~shard_placeholder] raises
    [Invalid_argument] before any job runs: only a campaign whose cells
    are independent of each other supplies one. *)

val for_all :
  ?backend:backend ->
  seed:int ->
  f:(seed:int -> 'a -> bool) ->
  'a list ->
  bool
(** [true] iff [f] holds for every planned job.  Workers stop taking
    jobs once a failure is known, through a shared abort flag; the
    boolean is bit-identical across backends because it does not depend
    on which jobs were skipped.  Its jobs count in the telemetry like
    those of {!map}.  Under supervision, a quarantined job counts as
    [false] when the policy says [keep_going], else {!Job_failed} is
    raised. *)

(** {1 Supervision}

    A process-wide execution policy: per-attempt wall-clock timeout
    enforced by a watchdog domain through cooperative cancellation
    (domains cannot be killed; the simulator polls {!poll} every 1024
    scheduler ticks), bounded immediate retry with the job's own seed,
    and quarantine of poison jobs under [keep_going].  An
    optional {!Fault.plan} injects executor-level faults for chaos
    testing.  Installed ambiently (like {!set_progress}) so every
    campaign driver inherits it without signature changes. *)

type supervision = {
  timeout_s : float option;  (** per-attempt wall-clock budget *)
  retries : int;  (** extra attempts after the first, run at once *)
  keep_going : bool;  (** quarantine poison jobs instead of aborting *)
  faults : Fault.plan option;  (** executor-level fault injection *)
}

val supervision :
  ?timeout_s:float ->
  ?retries:int ->
  ?keep_going:bool ->
  ?faults:Fault.plan ->
  unit ->
  supervision
(** Defaults: no timeout, no retries, abort on failure, no faults —
    equivalent to unsupervised execution. *)

val set_supervision : supervision option -> unit
(** Install (or clear) the process-wide policy.  Also clears the pending
    degradation summary and installs/removes the simulator poll hook. *)

exception Job_failed of failure
(** Raised (after the pool drains) when a job exhausts its attempts and
    the policy does not allow degradation. *)

exception Timed_out
(** Raised at a poll point inside a cancelled attempt.  Escapes to the
    supervision layer only; user code never sees it. *)

exception Interrupted of int
(** Graceful-stop request carrying the POSIX signal number.  The CLI's
    SIGTERM/SIGINT handlers raise it so a campaign unwinds through the
    normal abort path (resumable ledger prefix, final heartbeat,
    stopped HTTP server) and exits [128 + signum].  Supervision
    re-raises it immediately — an operator's stop is never retried or
    quarantined. *)

val poll : unit -> unit
(** Cooperative cancellation point: raises {!Timed_out} iff the calling
    worker's current attempt has been cancelled by the watchdog.  Cheap
    (two atomic reads); long-running job functions outside the simulator
    may call it directly. *)

type summary = {
  retried : int;  (** retry attempts performed since the last drain *)
  quarantined : failure list;  (** sorted by (label, index) *)
}

val drain_summary : unit -> summary
(** Return and reset the accumulated degradation summary.  The CLI calls
    this once per campaign to print the summary and pick the exit
    code. *)

val summary_counts : unit -> int * int
(** [(retried, quarantined)] so far, without draining — the heartbeat
    emitter's periodic view; {!drain_summary} still sees everything. *)

type reporter = {
  line : string -> unit;
      (** one rate-limited progress line: completed/total jobs,
          throughput, error rate (when countable) and EWMA-based ETA *)
  finished : unit -> unit;
      (** called once after the final line of a campaign — lets a
          tty reporter terminate its in-place [\r] line *)
}

val set_progress : reporter option -> unit
(** Install (or clear) the global progress sink.  The CLI points this
    at a [\r]-updating stderr line when stderr is a tty, at [Logs]
    under [-v], and clears it under [--quiet]; when unset, campaigns
    run silently. *)

val info : string -> unit
(** Forward one message to the progress sink, if installed.  For the few
    driver-level milestones that are not per-job (e.g. hardening
    rounds). *)

val format_eta : float -> string
(** Human-readable duration (["02:35"], ["1h05m"]); ["-"] for negative
    or non-finite values. *)

(** {1 Published progress}

    The engine's live view of the newest campaign phase, refreshed by
    the progress ticker about once a second {e whether or not} a
    reporter is installed — quiet shard workers still publish, which is
    what their heartbeat stream ({!Heartbeat}) and the [/status]
    endpoint sample. *)

type progress = {
  p_label : string;  (** campaign label *)
  p_total : int;  (** planned jobs (shard-local under a shard journal) *)
  p_done : int;  (** completed jobs, including cached replays *)
  p_cached : int;  (** jobs replayed from a resume cache *)
  p_errors : int;  (** erroneous executions so far (0 when uncountable) *)
  p_rate : float;  (** EWMA jobs/s; 0.0 until warm *)
  p_eta_s : float option;
      (** ETA in seconds; [None] until the estimate has a basis (at
          least two live completions) *)
  p_updated : float;  (** wall clock of the last refresh *)
}

val progress : unit -> progress option
(** The most recent snapshot, or [None] before any ticked campaign. *)

val eta_of : live_done:int -> remaining:int -> ewma:float -> float option
(** The ticker's ETA rule: [Some (remaining / ewma)] only once at least
    two live (non-cached) jobs completed and the EWMA is warm —
    guarding against the wild single-sample estimates a cold start used
    to print on slow campaigns. *)
