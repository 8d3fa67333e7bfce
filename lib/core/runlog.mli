(** Durable JSONL run ledger for long campaigns.

    The paper's campaigns are hours long (an hour per Table 5 cell,
    ~0.5 billion litmus executions for tuning), yet a killed driver used
    to lose everything and a finished one left no machine-readable
    record of what produced a table.  A {e ledger} fixes both: it is an
    append-only JSONL file written incrementally as {!Exec} jobs
    complete, containing

    {ul
    {- a {b header} record — schema version, campaign kind, command
       line, master seed, [--jobs], the parameter grid as JSON, and
       [git describe] when available;}
    {- one {b job} record per completed job — phase name, plan index,
       pre-derived sub-seed, error count, duration, and the reduced
       result payload as {!Json};}
    {- one {b result} record — the fully reduced driver result, written
       after the campaign's reduce step (what [gpuwmm report --from]
       renders);}
    {- a {b footer} — job/error totals, wall time, and a
       {!Telemetry} snapshot.}}

    {b Plan-order durability.}  Workers complete jobs out of order, but
    the writer holds a reorder buffer and only flushes a job record once
    every lower-indexed record of the same phase is on disk.  A killed
    run therefore leaves a ledger whose job records are a plan-order
    prefix per phase — exactly the shape {!cache_of_ledger} needs for
    resumption — and, in {{!deterministic_mode} deterministic mode}, a
    ledger that is byte-identical for every [--jobs] value.

    {b Resume.}  [--resume LEDGER] loads the old ledger, replays its
    completed job records as cached results (skipping their execution
    entirely), and re-runs only the remainder.  The property that a
    fresh run and a killed-then-resumed run produce bit-identical
    ledgers and reports, for any kill point and any [--jobs] in
    {1,2,4}, is qcheck-tested in [test/test_runlog.ml]. *)

val schema_version : int

val deterministic_mode : unit -> bool
(** True when the [GPUWMM_LEDGER_DETERMINISTIC] environment variable is
    set to anything but [""], ["0"] or ["false"].  In this mode every
    wall-clock-dependent ledger field is zeroed (header [created],
    [argv], [git], [jobs]; job durations; footer wall time and telemetry
    snapshot), so two runs of the same campaign at the same seed produce
    byte-identical ledgers regardless of parallelism or timing.  Used by
    the resume property tests and the CI kill/resume job. *)

(** {1 Records} *)

type header = {
  schema : int;
  campaign : string;  (** campaign kind, e.g. ["test"] or ["table5"] *)
  argv : string list;
  seed : int;
  jobs : int;  (** the [--jobs] value the run was started with *)
  grid : Json.t;  (** the parameter grid (chips, envs, apps, budget) *)
  git : string option;  (** [git describe --always --dirty] if available *)
  created : float;  (** unix time *)
  shard : string option;
      (** [Some "k/N"] marks a shard ledger (see {!Shard}); serialised
          only when present, and preserved in deterministic mode — a
          shard's identity is part of the plan, not of the wall clock *)
  merged : string list option;
      (** contributing shard-ledger paths, stamped by [gpuwmm merge]
          outside deterministic mode only (a merged deterministic
          ledger must stay byte-identical to the single-process run) *)
}

val make_header :
  ?argv:string list -> ?jobs:int -> ?shard:string -> campaign:string ->
  seed:int -> grid:Json.t -> unit -> header
(** Stamp a header for a fresh run.  [argv] defaults to [Sys.argv]; in
    {!deterministic_mode} the [argv], [git], [created] and [jobs] fields
    are zeroed as documented above ([shard] is kept). *)

type job = {
  phase : string;
      (** namespaced stage, e.g. ["campaign"], ["K20/patch"],
          ["checks"]; unique per [Exec.run] call within a ledger *)
  index : int;  (** plan index within the phase *)
  seed : int;  (** the job's pre-derived sub-seed *)
  errors : int;  (** weak/error observations, for progress & compare *)
  duration_s : float;
  result : Json.t;  (** codec-encoded job result; [Null] when [failed] *)
  attempts : int;
      (** supervised attempts consumed (1 unless retries healed the job);
          serialised only when above 1, so fault-free ledgers are
          byte-identical with and without supervision *)
  failed : string option;
      (** [Some reason] marks a quarantined job: the record keeps the
          plan-order stream whole but carries no result, and resuming
          the ledger re-runs the job *)
}

type footer = {
  total_jobs : int;
  total_errors : int;
  quarantined : int;
      (** failed job records in this ledger (serialised only when
          non-zero); a non-zero value marks a degraded campaign *)
  wall_s : float;
  telemetry : Json.t;
}

val header : header Codec.t
val job : job Codec.t
val footer : footer Codec.t
(** The ledger's record codecs, each tagged by its ["rec"] field. *)

type ledger = {
  header : header;
  jobs : job list;  (** in file order *)
  result : (string * Json.t) option;  (** (kind, data) *)
  footer : footer option;  (** absent for interrupted runs *)
  torn : bool;  (** a trailing partial line was dropped (killed mid-write) *)
}

(** {1 Writing} *)

type t
(** An open ledger writer.  All operations are mutex-guarded and safe to
    call from any worker domain. *)

val create : ?deterministic:bool -> path:string -> header -> t
(** Truncate/create [path] and write the header line.  [deterministic]
    defaults to {!deterministic_mode}[ ()] and controls zeroing of job
    durations and footer timing at write time. *)

val path : t -> string

val append_job : ?pos:int -> t -> job -> unit
(** Buffer one completed job; flush it (and any unblocked successors) to
    disk once all lower flush ranks of its phase have been written.  The
    flush rank [pos] defaults to the job's plan index; a [k/N] shard
    passes its dense shard-local rank ({!Shard.rank}) instead, since it
    only writes the plan indices it owns.  Phases must be written
    contiguously: switching phase with out-of-order records still
    pending raises [Invalid_argument]. *)

val append_result : t -> kind:string -> Json.t -> unit
(** Write the reduced campaign result record. *)

val close : t -> unit
(** Write the footer and close the file.  Raises [Invalid_argument] if
    out-of-order job records are still pending (a gap in the plan). *)

val abort : t -> unit
(** Flush and close the file {e without} a footer, leaving a resumable
    prefix.  For exception paths. *)

(** {1 Loading and resumption} *)

val parse : string -> (ledger, string) result
(** Parse ledger text with the {!Jsonl} strict reader.  The first line
    must be a header.  A final line that fails to parse is dropped and
    flagged [torn] (the process was killed mid-write); a malformed line
    anywhere else is an error that names the line. *)

val load : string -> (ledger, string) result
(** {!parse} the file at a path. *)

type cache
(** Completed job records keyed by (phase, index). *)

val cache_of_ledger : ledger -> cache

val cache_size : cache -> int

(** {1 Journals}

    A journal is what drivers thread down to {!Exec}: an optional sink
    (the open writer), an optional resume cache, and the phase name that
    namespaces this [Exec.run] call's records.  Callers running the same
    driver several times in one ledger (per chip, per app) prefix the
    phase with {!extend}. *)

type journal = {
  sink : t option;
  cache : cache option;
  origin : string option;
      (** path of the ledger the cache was loaded from, so mismatch
          messages can name it *)
  shard : Shard.t option;
      (** [Some s]: the ledger records only shard [s]'s slice of the
          plan ({!Exec.run} executes and journals just that slice) *)
  phase : string;
}

val journal :
  ?sink:t -> ?cache:cache -> ?origin:string -> ?shard:Shard.t -> string ->
  journal
val extend : journal -> string -> journal
(** [extend j s] appends [s] to the phase prefix. *)

val validate_resume :
  ?shard:string ->
  ledger ->
  path:string ->
  campaign:string ->
  seed:int ->
  grid:Json.t ->
  (unit, string) result
(** Check a loaded ledger against this invocation's campaign kind, seed,
    parameter grid and shard ([shard] is this invocation's [--shard]
    spec, [None] for an unsharded run; it must equal the ledger's)
    before resuming from it.  Each error message names [path] and both
    the recorded and the planned value (the wording is golden-tested in
    [test/test_runlog.ml]). *)

(** {1 Codecs} *)

type 'a codec = {
  codec : 'a Codec.t;  (** the job result payload's JSON codec *)
  errors_of : 'a -> int;
      (** how many of the job's executions observed an error — drives
          the progress line's error rate and [compare]'s histograms *)
}

val int_codec : int codec
(** For count-valued jobs (the finders); [errors_of] is the count. *)

val bool_codec : bool codec
(** For check-valued jobs (hardening); [errors_of] is 1 on [false]. *)

val cached_value : journal -> codec:'a codec -> index:int -> seed:int ->
  ('a * job) option
(** Look up a cached job record and decode it.  A [failed]
    (quarantined) record is treated as absent so resuming re-runs it.
    Raises [Failure] — naming the journal's [origin] ledger — when the
    record exists but its seed differs from the planned seed (the
    ledger belongs to a different campaign) or its payload does not
    decode — resuming must never silently corrupt results. *)

val replay : ?pos:int -> journal -> job -> unit
(** Re-append a cached record verbatim to the sink (no-op without one),
    so a resumed ledger contains the full job history.  [pos] is the
    flush rank as for {!append_job}. *)

val record :
  journal -> ?pos:int -> ?attempts:int -> index:int -> seed:int ->
  errors:int -> duration_s:float -> Json.t -> unit
(** Append a freshly computed job record under the journal's phase.
    [attempts] (default 1) is the supervised attempt count; [pos] is
    the flush rank as for {!append_job}. *)

val record_failure :
  journal -> ?pos:int -> index:int -> seed:int -> attempts:int ->
  duration_s:float -> string -> unit
(** Append a quarantined-job record: [Null] result, zero errors, the
    failure reason in [failed]. *)

val memo :
  journal option -> codec:'a codec -> index:int -> seed:int ->
  (unit -> 'a) -> 'a
(** Journal one sequential computation: replay it from cache when
    available, otherwise run it, record it, and return it.  Used by
    drivers whose unit of work is not an [Exec.run] job (hardening's
    adaptive check sequence). *)
