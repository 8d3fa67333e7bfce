(* Fleet view: join the heartbeat sidecars of a sharded campaign back
   into one picture.

   Every consumer of cross-process progress goes through this module so
   they all agree: the `gpuwmm status` subcommand (full per-shard table,
   ascii or JSON) and the /status and /metrics HTTP endpoints.  The
   inputs are plain .hb files, so the view works on a live campaign, on
   a finished one, and on artifacts copied off the machine.

   Aggregation rule: the fleet totals sum the *shard workers* (records
   carrying a shard spec) when any exist, because their shard-local
   counts partition the campaign plan exactly; a driver row (no shard
   spec — a plain unsharded campaign) joins the totals only when no
   shard rows are present, since it spans the whole plan and would
   double-count the shards. *)

type worker = {
  w_path : string;  (* the .hb stream *)
  w_last : Heartbeat.record;
  w_age_s : float;
  w_liveness : Heartbeat.liveness;
  w_straggler : bool;
}

type fleet = {
  workers : worker list;  (* sorted: shard workers by k, then drivers *)
  f_done : int;
  f_total : int;
  f_cached : int;
  f_errors : int;
  f_retried : int;
  f_quarantined : int;
  f_respawns : int;  (* crash respawns summed over the counted workers *)
  f_rate : float;  (* summed over live workers *)
  f_eta_s : float option;
  f_running : int;
  f_stale : int;
  f_dead : int;
  f_finished : int;
}

let shard_key r =
  match Option.map Shard.parse r.Heartbeat.shard with
  | None -> (1, 0)  (* drivers sort after shard workers *)
  | Some (Ok sh) -> (0, sh.Shard.k)
  | Some (Error _) -> (0, max_int)

let median = function
  | [] -> None
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    Some a.(Array.length a / 2)

let load ~now paths =
  let rows =
    List.filter_map
      (fun p ->
        match Heartbeat.latest p with
        | None -> None
        | Some r ->
          Some
            { w_path = p; w_last = r;
              w_age_s = Float.max 0.0 (now -. r.Heartbeat.t);
              w_liveness = Heartbeat.classify ~now r;
              w_straggler = false })
      paths
  in
  let rows =
    List.sort
      (fun a b ->
        match compare (shard_key a.w_last) (shard_key b.w_last) with
        | 0 -> compare a.w_path b.w_path
        | c -> c)
      rows
  in
  (* A worker whose ETA exceeds 1.5x the fleet median is the straggler
     the operator wants to look at first. *)
  let etas =
    List.filter_map
      (fun w ->
        if w.w_liveness = Heartbeat.Running then w.w_last.Heartbeat.eta_s
        else None)
      rows
  in
  let rows =
    match median etas with
    | Some m when List.length etas >= 2 && m > 0.0 ->
      List.map
        (fun w ->
          match (w.w_liveness, w.w_last.Heartbeat.eta_s) with
          | Heartbeat.Running, Some e when e > 1.5 *. m ->
            { w with w_straggler = true }
          | _ -> w)
        rows
    | _ -> rows
  in
  let shard_rows =
    List.filter (fun w -> w.w_last.Heartbeat.shard <> None) rows
  in
  let counted = if shard_rows <> [] then shard_rows else rows in
  let sum f = List.fold_left (fun acc w -> acc + f w.w_last) 0 counted in
  let f_done = sum (fun r -> r.Heartbeat.jobs_done) in
  let f_total = sum (fun r -> r.Heartbeat.jobs_total) in
  let live w = w.w_liveness = Heartbeat.Running || w.w_liveness = Heartbeat.Stale in
  let f_rate =
    List.fold_left
      (fun acc w -> if live w then acc +. w.w_last.Heartbeat.rate else acc)
      0.0 counted
  in
  let remaining = f_total - f_done in
  let f_eta_s =
    if remaining > 0 && f_rate > 0.0 then
      Some (float_of_int remaining /. f_rate)
    else None
  in
  let count l = List.length (List.filter (fun w -> w.w_liveness = l) rows) in
  { workers = rows;
    f_done;
    f_total;
    f_cached = sum (fun r -> r.Heartbeat.cached);
    f_errors = sum (fun r -> r.Heartbeat.errors);
    f_retried = sum (fun r -> r.Heartbeat.retried);
    f_quarantined = sum (fun r -> r.Heartbeat.quarantined);
    f_respawns = sum (fun r -> r.Heartbeat.respawns);
    f_rate;
    f_eta_s;
    f_running = count Heartbeat.Running;
    f_stale = count Heartbeat.Stale;
    f_dead = count Heartbeat.Dead;
    f_finished = count Heartbeat.Done }

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let format_eta = function
  | None -> "-"
  | Some s -> Exec.format_eta s

let bar ~width ~jobs_done ~total =
  if width <= 0 then ""
  else
    let filled =
      if total <= 0 then 0
      else Int.min width (width * jobs_done / Int.max 1 total)
    in
    Printf.sprintf "[%s%s]" (String.make filled '#')
      (String.make (width - filled) '.')

let percent ~jobs_done ~total =
  if total <= 0 then 0 else 100 * jobs_done / total

let summary_line f =
  let workers =
    Printf.sprintf "%d worker(s)%s%s%s"
      (List.length f.workers)
      (if f.f_finished > 0 then Printf.sprintf ", %d done" f.f_finished else "")
      (if f.f_stale > 0 then Printf.sprintf ", %d stale" f.f_stale else "")
      (if f.f_dead > 0 then Printf.sprintf ", %d DEAD" f.f_dead else "")
  in
  Printf.sprintf "fleet: %d/%d jobs (%d%%) | %.1f jobs/s | ETA %s | %s"
    f.f_done f.f_total
    (percent ~jobs_done:f.f_done ~total:f.f_total)
    f.f_rate (format_eta f.f_eta_s) workers

let worker_line ?(width = 20) w =
  let r = w.w_last in
  let name =
    match r.Heartbeat.shard with Some s -> s | None -> "driver"
  in
  let state =
    match w.w_liveness with
    | Heartbeat.Running ->
      Printf.sprintf "%4.1f j/s  ETA %s" r.Heartbeat.rate
        (format_eta r.Heartbeat.eta_s)
    | Heartbeat.Stale -> Printf.sprintf "STALE (%.0fs quiet)" w.w_age_s
    | Heartbeat.Dead -> Printf.sprintf "DEAD (%.0fs quiet)" w.w_age_s
    | Heartbeat.Done -> "done"
  in
  let extras =
    (if r.Heartbeat.retried > 0 then
       Printf.sprintf "  retried %d" r.Heartbeat.retried
     else "")
    ^ (if r.Heartbeat.quarantined > 0 then
         Printf.sprintf "  quarantined %d" r.Heartbeat.quarantined
       else "")
    ^ (if r.Heartbeat.respawns > 0 then
         Printf.sprintf "  respawned %d" r.Heartbeat.respawns
       else "")
    ^ if w.w_straggler then "  << straggler" else ""
  in
  Printf.sprintf "  %-8s %s %4d/%-4d %3d%%  %-24s pid %d%s" name
    (bar ~width ~jobs_done:r.Heartbeat.jobs_done
       ~total:r.Heartbeat.jobs_total)
    r.Heartbeat.jobs_done r.Heartbeat.jobs_total
    (percent ~jobs_done:r.Heartbeat.jobs_done ~total:r.Heartbeat.jobs_total)
    state r.Heartbeat.pid extras

let render_ascii ?(width = 20) f =
  let b = Buffer.create 512 in
  Buffer.add_string b (summary_line f);
  Buffer.add_char b '\n';
  List.iter
    (fun w ->
      Buffer.add_string b (worker_line ~width w);
      Buffer.add_char b '\n')
    f.workers;
  Buffer.contents b

let worker_json w =
  let r = w.w_last in
  let open Json in
  Assoc
    ((match r.Heartbeat.shard with
     | Some s -> [ ("shard", String s) ]
     | None -> [])
    @ [ ("pid", Int r.Heartbeat.pid);
        ("state", String (Heartbeat.liveness_name w.w_liveness));
        ("label", String r.Heartbeat.label);
        ("done", Int r.Heartbeat.jobs_done);
        ("total", Int r.Heartbeat.jobs_total);
        ("cached", Int r.Heartbeat.cached);
        ("errors", Int r.Heartbeat.errors);
        ("rate", Float r.Heartbeat.rate) ]
    @ (match r.Heartbeat.eta_s with
      | Some e -> [ ("eta_s", Float e) ]
      | None -> [])
    @ [ ("retried", Int r.Heartbeat.retried);
        ("quarantined", Int r.Heartbeat.quarantined) ]
    (* Conditional like the heartbeat codec, so the golden status.json
       fixture keeps its historical bytes. *)
    @ (if r.Heartbeat.respawns > 0 then
         [ ("respawns", Int r.Heartbeat.respawns) ]
       else [])
    @ [ ("age_s", Float w.w_age_s); ("seq", Int r.Heartbeat.seq);
        ("straggler", Bool w.w_straggler) ])

let render_json f =
  let open Json in
  Assoc
    [ ( "fleet",
        Assoc
          ([ ("done", Int f.f_done); ("total", Int f.f_total);
             ("cached", Int f.f_cached); ("errors", Int f.f_errors);
             ("retried", Int f.f_retried);
             ("quarantined", Int f.f_quarantined); ("rate", Float f.f_rate) ]
          @ (match f.f_eta_s with
            | Some e -> [ ("eta_s", Float e) ]
            | None -> [])
          @ [ ( "workers",
                Assoc
                  [ ("running", Int f.f_running); ("stale", Int f.f_stale);
                    ("dead", Int f.f_dead); ("done", Int f.f_finished) ] )
            ]) );
      ("shards", List (List.map worker_json f.workers)) ]

(* The fleet gauges of /metrics; the process registry's half is
   {!Telemetry.prometheus}. *)
let prometheus f =
  let gauge name n = Telemetry.sample ~kind:"gauge" name (string_of_int n) in
  let labelled name label rows =
    { Telemetry.name; kind = "gauge";
      samples =
        List.map
          (fun (l, n) -> (Printf.sprintf "{%s=%S}" label l, string_of_int n))
          rows }
  in
  (* Per-shard plan sizes let a scraper tell "the fleet total is still
     partial" (a shard at 0 has not announced its plan yet) from "the
     fleet total is the whole campaign". *)
  let per_shard name count =
    labelled name "shard"
      (List.filter_map
         (fun w ->
           Option.map (fun s -> (s, count w.w_last)) w.w_last.Heartbeat.shard)
         f.workers)
  in
  Telemetry.exposition
    [ gauge "gpuwmm_fleet_jobs_done" f.f_done;
      gauge "gpuwmm_fleet_jobs_total" f.f_total;
      gauge "gpuwmm_fleet_errors" f.f_errors;
      gauge "gpuwmm_fleet_retried" f.f_retried;
      gauge "gpuwmm_fleet_quarantined" f.f_quarantined;
      gauge "gpuwmm_fleet_respawns" f.f_respawns;
      Telemetry.sample ~kind:"gauge" "gpuwmm_fleet_rate_jobs_per_s"
        (Printf.sprintf "%g" f.f_rate);
      labelled "gpuwmm_fleet_workers" "state"
        [ ("running", f.f_running); ("stale", f.f_stale); ("dead", f.f_dead);
          ("done", f.f_finished) ];
      per_shard "gpuwmm_shard_jobs_done" (fun r -> r.Heartbeat.jobs_done);
      per_shard "gpuwmm_shard_jobs_total" (fun r -> r.Heartbeat.jobs_total) ]

let route ~observe (req : Httpd.request) =
  match (req.Httpd.meth, req.Httpd.path) with
  | ("GET" | "HEAD"), "/metrics" ->
    let fleet, extra = observe () in
    Httpd.respond ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      (Telemetry.prometheus (Telemetry.snapshot ()) ^ prometheus fleet ^ extra)
  | ("GET" | "HEAD"), "/healthz" -> Httpd.respond "ok\n"
  | _ -> Httpd.respond ~status:404 "not found\n"
