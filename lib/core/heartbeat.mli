(** Worker heartbeats: periodic per-process progress/health records on a
    sidecar JSONL stream next to the campaign ledger.

    Each campaign process (a ledgered run, or a [--shard k/N] worker
    under [gpuwmm serve]) appends one {!record} every [interval_s] to
    [<ledger>.hb]: pid and shard spec, the engine's live progress
    ({!Exec.progress}), retry/quarantine counts, GC pressure from
    [Gc.quick_stat], and the deltas of the {!Telemetry} counters since
    the previous beat.  Readers ({!Fleetview}, `gpuwmm status`, the
    {!Httpd} endpoints) reassemble the sidecars into a fleet view and
    use beat {e staleness} to flag dead workers: a stream quiet for two
    intervals is classified {!Dead}, so a hung or [kill -9]'d worker is
    exposed from its stream alone.

    Under [GPUWMM_LEDGER_DETERMINISTIC] every wall-clock-derived field
    (timestamp, rate, ETA, GC stats) is written as zero, keeping test
    fixtures byte-stable.  Heartbeats never affect campaign results or
    ledger bytes. *)

type liveness =
  | Running  (** last beat within 1.5 intervals *)
  | Stale  (** between 1.5 and 2 intervals — one missed beat *)
  | Dead  (** quiet for ≥ 2 intervals without a final beat *)
  | Done  (** the stream ends with an orderly final beat *)

type record = {
  pid : int;
  shard : string option;  (** ["k/N"] for shard workers, [None] for drivers *)
  seq : int;  (** 0-based beat number within the stream *)
  t : float;  (** wall clock of the beat; [0.0] in deterministic mode *)
  interval_s : float;  (** the emitter's beat interval *)
  final : bool;  (** last beat of a completed process *)
  label : string;  (** current campaign phase, [""] before the first job *)
  jobs_done : int;  (** completed jobs (shard-local under [--shard]) *)
  jobs_total : int;  (** planned jobs (shard-local under [--shard]) *)
  cached : int;  (** jobs replayed from a resume cache *)
  errors : int;  (** erroneous executions so far, when countable *)
  rate : float;  (** EWMA jobs/s; [0.0] until warm *)
  eta_s : float option;  (** ETA; [None] until ≥ 2 live completions *)
  retried : int;  (** retry attempts performed so far *)
  quarantined : int;  (** jobs quarantined so far *)
  respawns : int;
      (** crash respawns behind this worker ([GPUWMM_RESPAWN], stamped
          by the supervisor on respawn); omitted from JSON at [0] *)
  minor_words : float;  (** [Gc.quick_stat] cumulative minor words *)
  minor_collections : int;
  major_collections : int;
  counters : (string * int) list;
      (** telemetry counter deltas since the previous beat, sorted by
          name, zero deltas omitted *)
}

val hb_path : string -> string
(** The sidecar stream path for a ledger: [<ledger>.hb]. *)

val record : record Codec.t
(** The stream's line format, tagged ["rec": "hb"]; [shard] and
    [eta_s] are omitted at [None], [final] and [respawns] at their
    defaults. *)

val append : path:string -> record -> unit
(** Append one record with {!Jsonl.append}, creating the stream if
    needed and healing a torn tail first.  Raises [Unix.Unix_error]
    when the stream cannot be written. *)

val load : string -> record list
(** Every parseable record, oldest first ({!Jsonl.lenient}).  A missing
    file is an empty stream; torn or foreign lines are skipped. *)

val latest : string -> record option
(** The newest parseable record of a stream (the last of {!load}),
    read backwards from the end of the file. *)

val classify : now:float -> record -> liveness
(** Liveness of the worker behind a stream's newest record at [now]. *)

val liveness_name : liveness -> string
(** ["running"], ["stale"], ["dead"] or ["done"]. *)

(** {1 The emitter} *)

type emitter

val start : ?interval_s:float -> ?shard:string -> path:string -> unit -> emitter
(** Spawn a background domain that appends one beat immediately and then
    one every [interval_s] seconds (default 1.0), sampling
    {!Exec.progress}, {!Exec.summary_counts}, [Gc.quick_stat] and the
    telemetry counters.  The emitter never raises into the campaign:
    write failures are swallowed. *)

val stop : emitter -> unit
(** Stop the emitter and wait for it; a last record with [final = true]
    is appended so readers can distinguish completion from death.  The
    emitter sleeps on a self-pipe that [stop] writes to, so this returns
    as soon as that beat is written, whatever the interval. *)
