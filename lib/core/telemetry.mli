(** Metrics registry, per-job spans, and trace exporters.

    The deterministic side of observability lives in {!Gpusim.Trace}:
    typed simulator events stamped with device ticks, identical across
    execution backends.  This module is the {e non}-deterministic side —
    everything that involves wall clocks, worker domains, or aggregate
    throughput — plus the serialisation layer that turns both sides into
    files a human (or Chrome) can open:

    {ul
    {- a process-wide registry of named {b counters} and duration
       {b histograms}, safe to bump from any domain.  Cells are striped
       per domain and merged on read, so hot-path updates from worker
       domains never contend on a shared cache line (the registry itself
       is mutex-guarded);}
    {- per-job {b spans} recorded by {!Exec} when enabled — queue wait,
       run time, worker id — for visualising campaign schedules;}
    {- exporters: Chrome trace-event JSON ([chrome://tracing],
       Perfetto), line-delimited JSON that writes every field of every
       record (no program reads it back), and the Prometheus text
       exposition that every [/metrics] route writes through.}} *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find or create the registered counter with this name.  Cheap enough
    to call per use-site, but callers on hot paths should hoist it. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** Find or create a duration histogram (seconds, log-scale buckets from
    1µs to 100s plus overflow). *)

val observe : histogram -> float -> unit
(** Record one duration.  Negative samples clamp to zero. *)

type histogram_snapshot = {
  count : int;
  sum : float;  (** total seconds across all samples *)
  buckets : (float * int) list;
      (** (upper bound in seconds, samples ≤ bound); the final bucket
          has bound [infinity] *)
}

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** A consistent-enough view of the whole registry (each cell is read
    atomically; the set of cells is read under the registry lock). *)

val reset : unit -> unit
(** Zero every registered counter and histogram (registrations remain). *)

val snapshot_to_json : snapshot -> Json.t
(** [{"counters": {...}, "histograms": {name: {count, sum, buckets}}}].
    Histogram buckets render only non-empty ones, as
    [{"le": bound_or_"inf", "n": count}]. *)

(** {1 Spans} *)

type span = {
  label : string;  (** campaign label, e.g. ["tune"] *)
  index : int;  (** job index in the plan *)
  worker : int;  (** worker domain slot; 0 is the calling domain *)
  queued_at : float;  (** wall clock when the batch was submitted *)
  started_at : float;
  ended_at : float;
}

val set_spans : bool -> unit
(** Enable or disable span recording process-wide (default off; enabling
    also clears previously recorded spans). *)

val spans_enabled : unit -> bool

val record_span : span -> unit
(** No-op while spans are disabled. *)

val spans : unit -> span list
(** Recorded spans, oldest first. *)

val clear_spans : unit -> unit

(** {1 Exporters} *)

val record_to_json : Gpusim.Trace.record -> Json.t
(** One flat object: [{"tick": t, "ev": "commit", ...event fields}]. *)

val jsonl : ?pid:int -> ?shard:string -> Gpusim.Trace.record list -> string
(** One {!record_to_json} object per line, newline-terminated.  [?pid]
    and [?shard] prepend provenance fields to every line, so lines from
    several worker processes stay attributable after concatenation. *)

val chrome_trace :
  ?pid:int ->
  ?shard:string ->
  ?span_base:float ->
  ?spans:span list ->
  Gpusim.Trace.record list ->
  Json.t
(** A Chrome trace-event file: [{"traceEvents": [...]}].  Simulator
    records become instant events (ph ["i"], ts = device tick in µs,
    tid = issuing thread) except {!Gpusim.Trace.Contention} samples,
    which become counter events (ph ["C"], one track per partition).
    Spans become complete events (ph ["X"], tid = worker, dur = run
    time, with queue wait in args).  Events are sorted by ts, so
    timestamps are monotone within every track.

    Without [?pid], records sit on synthetic track 0 and spans on
    track 1, and span timestamps are rebased so the earliest
    [queued_at] is 0 — the traditional single-process layout.  With
    [?pid] (a campaign process writing its own file) both use the real
    pid and a [process_name] metadata event labels the track with pid
    and [?shard]; pass [~span_base:0.0] to keep span timestamps
    absolute (Unix µs) so [gpuwmm trace --merge] can union files from
    several processes onto one timeline. *)

val chrome_events : Json.t -> (Json.t list, string) result
(** The [traceEvents] array of a Chrome trace-event document, ours or a
    foreign tool's. *)

val merge_chrome : Json.t list -> Json.t
(** One timeline from the {!chrome_events} of several files (one per
    campaign process, spans written with absolute timestamps): metadata
    events (ph ["M"]) first, in input order, then every other event
    with its [ts] rebased so the earliest is 0, stably sorted by [ts].
    Integer and float [ts] both count; integer ones stay integers when
    the earliest [ts] is integral. *)

(** {1 Prometheus text exposition} *)

type family = {
  name : string;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  samples : (string * string) list;
      (** per sample, what follows [name] (labels, a ["_sum"] suffix)
          and the value as written *)
}

val sample : kind:string -> string -> string -> family
(** [sample ~kind name v]: a family of one unlabelled sample. *)

val exposition : family list -> string
(** The one writer of the syntax, for every part of [/metrics]: per
    family its [# TYPE] line, even without samples, then a line per
    sample. *)

val prometheus : snapshot -> string
(** The registry's exposition: each counter as a [counter] metric and
    each histogram as a [histogram] with [_bucket{le=...}]/[_sum]/
    [_count] series, names prefixed [gpuwmm_] with non-alphanumerics
    mapped to [_] (["exec.jobs"] → ["gpuwmm_exec_jobs"]). *)
