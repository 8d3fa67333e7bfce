(* Worker heartbeats: the cross-process half of campaign progress.

   A campaign ledger records *results*; it says nothing about the
   health of the process writing it.  Each campaign process therefore
   appends a small JSONL heartbeat record to a sidecar stream
   ([<ledger>.hb]) about once a second: pid and shard, jobs done/total,
   the EWMA rate and ETA the ticker already maintains, retry and
   quarantine counts, GC pressure, and the deltas of the telemetry
   counters since the previous beat.  Readers (the parent's fleet
   ticker, `gpuwmm status`, the /status and /metrics endpoints) join
   the sidecars back into one fleet view — and classify a worker whose
   stream has gone quiet for two intervals as dead, which is how a
   `kill -9`'d worker is flagged without waiting on the parent's
   waitpid.

   The stream is append-only and crash-tolerant like the ledger itself:
   each beat is one line, written with a single [output_string] on a
   freshly opened descriptor, and readers drop unparseable (torn)
   lines.  Heartbeats never influence results; under
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

(* GPUWMM_HEARTBEAT=off disables the sidecar; a numeric value overrides
   the beat interval in seconds. *)
let enabled () =
  match Sys.getenv_opt "GPUWMM_HEARTBEAT" with
  | Some ("0" | "off" | "no" | "false") -> false
  | _ -> true

let default_interval = 1.0

let interval () =
  match Sys.getenv_opt "GPUWMM_HEARTBEAT" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some f when f > 0.0 -> f
    | _ -> default_interval)
  | None -> default_interval

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)

let to_json r =
  let open Json in
  Assoc
    (("rec", String "hb") :: ("pid", Int r.pid)
    :: (match r.shard with Some s -> [ ("shard", String s) ] | None -> [])
    @ [ ("seq", Int r.seq); ("t", Float r.t);
        ("interval_s", Float r.interval_s) ]
    @ (if r.final then [ ("final", Bool true) ] else [])
    @ [ ("label", String r.label); ("done", Int r.jobs_done);
        ("total", Int r.jobs_total); ("cached", Int r.cached);
        ("errors", Int r.errors); ("rate", Float r.rate) ]
    @ (match r.eta_s with Some e -> [ ("eta_s", Float e) ] | None -> [])
    @ [ ("retried", Int r.retried); ("quarantined", Int r.quarantined) ]
    (* Omitted at 0 so streams from never-crashed workers (and the
       golden fixtures) keep their historical bytes. *)
    @ (if r.respawns > 0 then [ ("respawns", Int r.respawns) ] else [])
    @ [ ("minor_words", Float r.minor_words);
        ("minor_collections", Int r.minor_collections);
        ("major_collections", Int r.major_collections);
        ("counters", Assoc (List.map (fun (k, v) -> (k, Int v)) r.counters))
      ])

let of_json j =
  let open Runlog.Dec in
  let opt_float k =
    match Json.member k j with
    | None -> Ok None
    | Some v -> (
      match Json.to_float v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %s is not a number" k))
  in
  let opt_bool k ~default =
    match Json.member k j with
    | None -> Ok default
    | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %s is not a boolean" k))
  in
  let* tag = str "rec" j in
  if tag <> "hb" then Error (Printf.sprintf "not a heartbeat record: %S" tag)
  else
    let* pid = int "pid" j in
    let* shard = opt_str "shard" j in
    let* seq = int "seq" j in
    let* t = float "t" j in
    let* interval_s = float "interval_s" j in
    let* final = opt_bool "final" ~default:false in
    let* label = str "label" j in
    let* jobs_done = int "done" j in
    let* jobs_total = int "total" j in
    let* cached = int "cached" j in
    let* errors = int "errors" j in
    let* rate = float "rate" j in
    let* eta_s = opt_float "eta_s" in
    let* retried = int "retried" j in
    let* quarantined = int "quarantined" j in
    let* respawns =
      match Json.member "respawns" j with
      | None -> Ok 0
      | Some v -> (
        match Json.to_int v with
        | Some n -> Ok n
        | None -> Error "field respawns is not an integer")
    in
    let* minor_words = float "minor_words" j in
    let* minor_collections = int "minor_collections" j in
    let* major_collections = int "major_collections" j in
    let* counters =
      match Json.member "counters" j with
      | Some (Json.Assoc kvs) ->
        all
          (fun (k, v) ->
            match Json.to_int v with
            | Some n -> Ok (k, n)
            | None -> Error (Printf.sprintf "non-integer counter %s" k))
          kvs
      | _ -> Error "missing or mistyped field counters"
    in
    Ok
      { pid; shard; seq; t; interval_s; final; label; jobs_done; jobs_total;
        cached; errors; rate; eta_s; retried; quarantined; respawns;
        minor_words; minor_collections; major_collections; counters }

(* ------------------------------------------------------------------ *)
(* Stream I/O                                                           *)

(* One open-append-write-close per beat: the line lands in one write so
   a concurrent reader never sees half a record except after a crash
   mid-write, and crashes leave no dangling descriptor. *)
let append ~path r =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r) ^ "\n");
      flush oc)

(* Every parseable record of a stream, oldest first.  Torn or foreign
   lines are skipped, mirroring the ledger reader's crash tolerance. *)
let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let acc = ref [] in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Json.of_string line with
           | Error _ -> ()
           | Ok j -> (
             match of_json j with Ok r -> acc := r :: !acc | Error _ -> ())
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !acc

(* The supervisor asks for the newest beat of every live worker on every
   tick, and an hour-long stream is thousands of records, so read
   backwards from the end: windows doubling from 4 KiB until one holds
   a parseable line.  Same line rules as [load]. *)
let latest path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let parse line =
      match Json.of_string line with
      | Ok j -> Result.to_option (of_json j)
      | Error _ -> None
    in
    (* Every line starting at or after [stop] has been tried. *)
    let rec back stop window =
      let lo = Int.max 0 (stop - window) in
      seek_in ic lo;
      let lines =
        String.split_on_char '\n' (really_input_string ic (stop - lo))
      in
      (* Unless the window reaches the start of the file, its first
         line may begin before [lo]: leave it to the next window. *)
      let first, whole =
        if lo = 0 then ("", lines) else (List.hd lines, List.tl lines)
      in
      match List.find_map parse (List.rev whole) with
      | Some r -> Some r
      | None when lo = 0 -> None
      | None -> back (lo + String.length first) (2 * window)
    in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try back (in_channel_length ic) 4096
        with End_of_file | Sys_error _ -> None)

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

let start ?(interval_s = interval ()) ?shard ~path () =
  let det = Runlog.deterministic_mode () in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let dom =
    Domain.spawn (fun () ->
        (* Signal handlers run on whichever domain the runtime picks; a
           raising SIGTERM/SIGINT handler (graceful campaign shutdown)
           delivered here must not escape through [stop]'s Domain.join.
           The wrap still appends the final beat on the way out, so an
           interrupted worker reads as orderly completion to the fleet
           view once its ledger is flushed. *)
        let prev_counters = ref [] in
        let seq = ref 0 in
        let beat ~final =
          match
            append ~path
              (sample ~det ~shard ~interval_s ~seq:!seq ~final ~prev_counters
                 ())
          with
          | () -> incr seq
          | exception Sys_error _ -> ()
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
