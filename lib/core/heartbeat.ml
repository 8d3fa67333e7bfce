(* Worker heartbeats: the cross-process half of campaign progress.

   A campaign ledger records *results*; it says nothing about the
   health of the process writing it.  Each campaign process therefore
   appends a small JSONL heartbeat record to a sidecar stream
   ([<ledger>.hb]) about once a second: pid and shard, jobs done/total,
   the EWMA rate and ETA the ticker already maintains, retry and
   quarantine counts, GC pressure, and the deltas of the telemetry
   counters since the previous beat.  Readers (`gpuwmm status`, the
   /status and /metrics endpoints, the serve supervisor's per-tick
   check) join the sidecars back into one fleet view — and classify a
   worker whose stream has gone quiet for two intervals as dead, which
   flags a hung or `kill -9`'d worker from its stream alone.

   The stream is append-only and crash-tolerant like the ledger itself:
   each beat is one line appended in one write by [Jsonl.append], which
   heals a torn tail first, and readers skip unparseable (torn) or
   foreign lines.  Heartbeats never influence results; under
   [GPUWMM_LEDGER_DETERMINISTIC] every wall-clock-derived field is
   zeroed so test fixtures stay byte-stable. *)

type liveness = Running | Stale | Dead | Done

type record = {
  pid : int;
  shard : string option;  (* "k/N" for shard workers, None for drivers *)
  seq : int;
  t : float;  (* wall clock of the beat; 0.0 in deterministic mode *)
  interval_s : float;
  final : bool;  (* last beat of a completed process *)
  label : string;  (* current campaign phase, "" before the first job *)
  jobs_done : int;
  jobs_total : int;
  cached : int;
  errors : int;
  rate : float;  (* EWMA jobs/s; 0.0 until warm or in deterministic mode *)
  eta_s : float option;
  retried : int;
  quarantined : int;
  respawns : int;  (* crash respawns this worker has behind it *)
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  counters : (string * int) list;  (* telemetry counter deltas, sorted *)
}

let hb_path ledger = ledger ^ ".hb"

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)

(* [final] and [respawns] are omitted at their defaults so streams from
   never-crashed workers (and the golden fixtures) keep their historical
   bytes. *)
let record =
  Codec.(
    obj
      (fun pid shard seq t interval_s final label jobs_done jobs_total cached
           errors rate eta_s retried quarantined respawns minor_words
           minor_collections major_collections counters ->
        { pid; shard; seq; t; interval_s; final; label; jobs_done; jobs_total;
          cached; errors; rate; eta_s; retried; quarantined; respawns;
          minor_words; minor_collections; major_collections; counters })
    |> mem "pid" int (fun r -> r.pid)
    |> opt "shard" string (fun r -> r.shard)
    |> mem "seq" int (fun r -> r.seq)
    |> mem "t" float (fun r -> r.t)
    |> mem "interval_s" float (fun r -> r.interval_s)
    |> dflt "final" bool ~default:false (fun r -> r.final)
    |> mem "label" string (fun r -> r.label)
    |> mem "done" int (fun r -> r.jobs_done)
    |> mem "total" int (fun r -> r.jobs_total)
    |> mem "cached" int (fun r -> r.cached)
    |> mem "errors" int (fun r -> r.errors)
    |> mem "rate" float (fun r -> r.rate)
    |> opt "eta_s" float (fun r -> r.eta_s)
    |> mem "retried" int (fun r -> r.retried)
    |> mem "quarantined" int (fun r -> r.quarantined)
    |> dflt "respawns" int ~default:0 (fun r -> r.respawns)
    |> mem "minor_words" float (fun r -> r.minor_words)
    |> mem "minor_collections" int (fun r -> r.minor_collections)
    |> mem "major_collections" int (fun r -> r.major_collections)
    |> mem "counters" (assoc int) (fun r -> r.counters)
    |> tag "rec" "hb" |> seal)

(* ------------------------------------------------------------------ *)
(* Stream I/O, through Jsonl: observers skip torn or foreign lines, and
   a worker respawned onto a torn stream heals it on its first beat.    *)

let append ~path r = Jsonl.append path (Codec.encode record r)
let load path = Jsonl.lenient (Codec.decode record) path
let latest path = Jsonl.last (Codec.decode record) path

(* ------------------------------------------------------------------ *)
(* Staleness                                                            *)

(* A worker that stops beating is flagged [Stale] after 1.5 intervals
   (one missed beat plus scheduling slack) and [Dead] at 2 — the bound
   `gpuwmm status` promises for a kill -9'd worker.  A final beat marks
   orderly completion and never ages into Dead. *)
let classify ~now r =
  if r.final then Done
  else if r.interval_s <= 0.0 then Running
  else
    let age = now -. r.t in
    if age >= 2.0 *. r.interval_s then Dead
    else if age > 1.5 *. r.interval_s then Stale
    else Running

let liveness_name = function
  | Running -> "running"
  | Stale -> "stale"
  | Dead -> "dead"
  | Done -> "done"

(* ------------------------------------------------------------------ *)
(* The emitter                                                          *)

(* Between beats the emitter sleeps in [select] on its own self-pipe;
   [stop] writes one byte to it, so the final beat lands, and the
   process can exit, the moment the campaign ends. *)
type emitter = {
  e_stop_r : Unix.file_descr;
  e_stop_w : Unix.file_descr;
  e_domain : unit Domain.t;
}

(* Until the campaign publishes its plan, the emitter looks for it this
   often so it can announce it at once. *)
let announce_poll_s = 0.02

(* Snapshot the process into one record.  Wall-clock-derived fields
   (timestamp, rate, ETA, GC stats) are zeroed in deterministic mode so
   sidecars written by test fixtures stay byte-stable; the campaign
   counters are real either way. *)
(* A worker respawned by its supervisor (Procs, under the serve
   daemon) carries its crash-respawn count in GPUWMM_RESPAWN; stamping
   it on every beat lets `gpuwmm status` show which shards crashed
   without any channel back to the parent. *)
let env_respawns () =
  match Sys.getenv_opt "GPUWMM_RESPAWN" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 0)
  | None -> 0

let sample ~det ~shard ~interval_s ~seq ~final ~prev_counters () =
  let p = Exec.progress () in
  let retried, quarantined = Exec.summary_counts () in
  let gc = Gc.quick_stat () in
  let snap = (Telemetry.snapshot ()).Telemetry.counters in
  let deltas =
    List.filter_map
      (fun (k, v) ->
        let d =
          v - (match List.assoc_opt k !prev_counters with Some o -> o | None -> 0)
        in
        if d <> 0 then Some (k, d) else None)
      snap
  in
  prev_counters := snap;
  let label, jobs_done, jobs_total, cached, errors, rate, eta_s =
    match p with
    | None -> ("", 0, 0, 0, 0, 0.0, None)
    | Some p ->
      ( p.Exec.p_label, p.Exec.p_done, p.Exec.p_total, p.Exec.p_cached,
        p.Exec.p_errors, p.Exec.p_rate, p.Exec.p_eta_s )
  in
  { pid = Unix.getpid ();
    shard;
    seq;
    t = (if det then 0.0 else Unix.gettimeofday ());
    interval_s;
    final;
    label;
    jobs_done;
    jobs_total;
    cached;
    errors;
    rate = (if det then 0.0 else rate);
    eta_s = (if det then None else eta_s);
    retried;
    quarantined;
    respawns = env_respawns ();
    minor_words = (if det then 0.0 else gc.Gc.minor_words);
    minor_collections = (if det then 0 else gc.Gc.minor_collections);
    major_collections = (if det then 0 else gc.Gc.major_collections);
    counters = deltas }

let start ?(interval_s = 1.0) ?shard ~path () =
  let det = Runlog.deterministic_mode () in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let dom =
    Domain.spawn (fun () ->
        (* OCaml runs a signal handler on whichever domain polls first,
           unless that domain's thread blocks the signal.  This one
           blocks SIGTERM and SIGINT, so their raising handler
           ([Exec.Interrupted]) runs on a campaign domain and unwinds
           the campaign; run here, the wrap below would swallow it and
           the campaign would run to its end.  The wrap keeps any other
           exception from escaping through [stop]'s Domain.join, and
           still appends the final beat on the way out. *)
        ignore (Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
        let prev_counters = ref [] in
        let seq = ref 0 in
        let beat ~final =
          match
            append ~path
              (sample ~det ~shard ~interval_s ~seq:!seq ~final ~prev_counters
                 ())
          with
          | () -> incr seq
          | exception Unix.Unix_error _ -> ()
        in
        try
        beat ~final:false;
        (* The seq-0 beat usually predates the campaign plan (the
           emitter starts before Exec builds its ticker), so it reports
           0/0.  Announce the plan the moment it appears rather than a
           full interval later: observers summing shard totals then see
           the whole fleet's plan within the workers' startup skew. *)
        let announced = ref (Exec.progress () <> None) in
        (* Sleep until the next beat is due (or the next look for the
           plan); a byte on the pipe means stop. *)
        let rec loop due =
          let now = Unix.gettimeofday () in
          let timeout =
            if !announced then due -. now
            else Float.min (due -. now) announce_poll_s
          in
          match Unix.select [ stop_r ] [] [] (Float.max 0.0 timeout) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop due
          | _ :: _, _, _ -> ()
          | [], _, _ ->
            let announce = (not !announced) && Exec.progress () <> None in
            if announce then announced := true;
            if announce || Unix.gettimeofday () >= due then begin
              beat ~final:false;
              loop (Unix.gettimeofday () +. interval_s)
            end
            else loop due
        in
        loop (Unix.gettimeofday () +. interval_s);
        beat ~final:true
        with _ -> (
          (* Best-effort final beat even on an interrupt path — with the
             real next seq and counter baseline, so the stream stays
             seq-monotonic and the last interval's deltas are honest. *)
          try beat ~final:true with _ -> ()))
  in
  { e_stop_r = stop_r; e_stop_w = stop_w; e_domain = dom }

let stop e =
  (try ignore (Unix.single_write_substring e.e_stop_w "x" 0 1)
   with Unix.Unix_error _ -> ());
  Domain.join e.e_domain;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ e.e_stop_r; e.e_stop_w ]
