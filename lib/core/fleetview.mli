(** Fleet view: join heartbeat sidecars ([<ledger>.hb]) into one
    cross-process picture of a campaign.

    All consumers of fleet progress — `gpuwmm status` and the {!Httpd}
    [/status] and [/metrics] endpoints — share this module, so a
    campaign looks the same from every vantage point.

    Totals sum the shard workers (records carrying a shard spec) when
    any exist; a driver row (no shard spec) is displayed but excluded
    from the totals then, because it spans the whole plan and would
    double-count the shards.  For an unsharded campaign the single
    driver row {e is} the fleet. *)

type worker = {
  w_path : string;  (** the .hb stream this row was read from *)
  w_last : Heartbeat.record;  (** the newest record of the stream *)
  w_age_s : float;  (** seconds since the last beat (≥ 0) *)
  w_liveness : Heartbeat.liveness;
  w_straggler : bool;
      (** running with an ETA over 1.5× the fleet median (needs ≥ 2
          running workers with ETAs) *)
}

type fleet = {
  workers : worker list;  (** sorted: shard workers by [k], then drivers *)
  f_done : int;
  f_total : int;
  f_cached : int;
  f_errors : int;
  f_retried : int;
  f_quarantined : int;
  f_respawns : int;  (** crash respawns summed over the counted workers *)
  f_rate : float;  (** jobs/s summed over running and stale workers *)
  f_eta_s : float option;  (** remaining ÷ rate when both are positive *)
  f_running : int;
  f_stale : int;
  f_dead : int;
  f_finished : int;  (** workers whose stream ended with a final beat *)
}

val load : now:float -> string list -> fleet
(** Read the newest record of each stream and aggregate.  Streams that
    are missing or hold no parseable record are dropped.  Pass
    [now = 0.0] when the sidecars were written in deterministic mode
    (their timestamps are all [0.0]). *)

val summary_line : fleet -> string
(** The fleet summary, the first line of {!render_ascii}:
    ["fleet: 37/96 jobs (38%) | 12.1 jobs/s | ETA 5s | 4 worker(s), 1 DEAD"]. *)

val worker_line : ?width:int -> worker -> string
(** One table row: shard, progress bar ([width] cells), counts, state,
    pid, retry/quarantine/straggler annotations. *)

val render_ascii : ?width:int -> fleet -> string
(** {!summary_line} followed by one {!worker_line} per worker. *)

val render_json : fleet -> Json.t
(** The [/status] document: a ["fleet"] aggregate object and a
    ["shards"] array with one object per worker. *)

val prometheus : fleet -> string
(** Prometheus text exposition of the fleet gauges
    ([gpuwmm_fleet_jobs_done], [gpuwmm_fleet_workers{state=...}],
    [gpuwmm_shard_jobs_done{shard="k/N"}], ...), through
    {!Telemetry.exposition}.  The per-process counter/histogram half of
    [/metrics] is {!Telemetry.prometheus}. *)

val route : observe:(unit -> fleet * string) -> Httpd.request -> Httpd.response
(** The routes of every campaign server, [--listen] and [serve] alike:
    [GET /metrics] is the process registry, then the gauges of the
    fleet [observe ()] returns, then the text returned with it (the
    daemon's queue); [GET /healthz] is ["ok"]; anything else a 404. *)
