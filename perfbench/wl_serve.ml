(* serve: the fanout campaign list submitted one at a time to a
   `gpuwmm serve --workers 2` daemon over HTTP, each campaign as 2
   shards.

   Why: it runs the daemon's lease loop, the Queue journal, worker spawn
   and Merge — the second worker supervisor.  With fanout it runs
   identical work through both supervisors, so a change that slows
   either one shows; under GPUWMM_LEDGER_DETERMINISTIC every merged
   ledger must be byte-identical to fanout's ledger of the same
   campaign.

   A campaign's latency is Finished.t - Submitted.t from the daemon's
   queue journal, not `submit --wait`, whose 0.5 s poll would quantise
   it.  Layer metrics it should move: httpd.submit_s, queue.wait_s,
   serve.spawn_s, serve.done_lag_s, merge.s, queue.requeues and
   queue.journal_bytes move campaign_p50_s and cpu_s here; runlog.load_s
   moves campaign_p50_s; heartbeat.beats moves cpu_s. *)

open Common

type traced = {
  t_req : float;
  t_resp : float;
  t_seen : float;
  camp : Journal.campaign;
  spec : Campaigns.t;
  beats : (int * Artifacts.beats) list;  (** shard -> its worker's stream *)
  jobs : int * float;
  merge_s : float;
}

(* utime + stime of a live process and of its reaped children, from
   /proc (in clock ticks of 1/100 s). *)
let proc_cpu pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.0
  | s -> (
    let after = String.rindex s ')' + 2 in
    match String.split_on_char ' ' (String.sub s after (String.length s - after)) with
    | fields when List.length fields > 14 ->
      let f i = float_of_string (List.nth fields i) in
      (f 11 +. f 12 +. f 13 +. f 14) /. 100.0
    | _ -> 0.0)

(* The port on the daemon's listening banner. *)
let banner_port path =
  match read_file path with
  | exception Sys_error _ -> None
  | s -> (
    let marker = "http://127.0.0.1:" in
    match find_sub s marker with
    | None -> None
    | Some i ->
      let j = i + String.length marker in
      let k = ref j in
      while !k < String.length s && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
      if !k > j then int_of_string_opt (String.sub s j (!k - j)) else None)

let make ~seed ~deterministic ~book =
  let dir = in_state "serve" in
  let sdir = Filename.concat dir "state" in
  mkdir_p dir;
  let env =
    child_env (if deterministic then [ ("GPUWMM_LEDGER_DETERMINISTIC", "1") ] else [])
  in
  let daemon = ref None in
  let start_daemon i =
    let out = Filename.concat dir (Printf.sprintf "serve-%d.out" i) in
    let t0 = now () in
    let pid =
      spawn ~stdout_path:out ~env
        [ gpuwmm_exe (); "serve"; "--dir"; sdir; "--listen"; "0"; "--workers"; "2"; "-q" ]
    in
    match poll_until ~timeout:30.0 (fun () -> banner_port out) with
    | Some port -> (pid, port, now () -. t0)
    | None ->
      stop_proc pid;
      failwith "gpuwmm serve printed no listening banner within 30 s"
  in
  let stop_daemon () =
    Option.iter (fun (pid, _) -> stop_proc pid) !daemon;
    daemon := None
  in
  (* Daemon spawn until its listening banner, fifteen times (a few
     milliseconds each); the last daemon serves the run. *)
  let setup () =
    List.init 15 (fun i ->
        stop_daemon ();
        let pid, port, dt = start_daemon i in
        daemon := Some (pid, port);
        dt)
  in
  let port () = match !daemon with Some (_, p) -> p | None -> failwith "no daemon" in
  let cpu () =
    Rusage.cpu_total () +. match !daemon with Some (pid, _) -> proc_cpu pid | None -> 0.0
  in
  let journal_path = Filename.concat sdir "queue.jsonl" in
  let traced = ref [] in
  let wait_finished id =
    let last_size = ref (-1) in
    poll_until ~timeout:120.0 (fun () ->
        let size = file_size journal_path in
        if size = !last_size then None
        else begin
          last_size := size;
          match span "journal.parse" (fun () -> Core.Queue.load journal_path) with
          | Error _ -> None
          | Ok (events, _) ->
            List.find_opt
              (fun (j : Journal.campaign) -> j.id = id && j.finished <> None)
              (Journal.campaigns events)
        end)
  in
  let submit (c : Campaigns.t) =
    match
      span "httpd.submit" (fun () ->
          Core.Httpd.fetch ~meth:"POST" ~body:(Campaigns.submit_body c) ~port:(port ())
            "/submit")
    with
    | Ok (200, body) -> (
      match Result.map (Core.Json.member "id") (Core.Json.of_string body) with
      | Ok (Some (Core.Json.String id)) -> Some id
      | _ ->
        fail "%s: submission answered %S" (Campaigns.key c) body;
        None)
    | Ok (status, body) ->
      fail "%s: submission refused (%d %s)" (Campaigns.key c) status (String.trim body);
      None
    | Error e ->
      fail "%s: submission failed (%s)" (Campaigns.key c) (Core.Httpd.fetch_error_message e);
      None
  in
  let run_campaign (c : Campaigns.t) =
    operation @@ fun () ->
    let t_req = now () in
    let id = submit c in
    let t_resp = now () in
    match Option.map (fun id -> (id, wait_finished id)) id with
    | None -> { Workload.latency = t_resp -. t_req; execs = 0 }
    | Some (id, None) ->
      fail "%s: %s not finished within 120 s" (Campaigns.key c) id;
      { Workload.latency = now () -. t_req; execs = 0 }
    | Some (id, Some camp) ->
      let t_seen = now () in
      if not (Journal.clean camp) then
        fail "%s: %s finished %s with %d requeue(s), %d quarantine(s)" (Campaigns.key c) id
          (match camp.finished with Some (_, s, _) -> s | None -> "?")
          camp.requeues camp.quarantines;
      let ledger = Filename.concat sdir (id ^ ".jsonl") in
      let shards = List.map (fun k -> Printf.sprintf "%s.shard%d" ledger k) [ 1; 2 ] in
      (match span "runlog.load" (fun () -> Ledgers.campaign_rows ledger) with
      | Error e -> fail "%s" e
      | Ok rows ->
        check_result
          (Ledgers.check book ~key:(Campaigns.key c ^ ".rows") (Ledgers.rows_digest rows)));
      (* The reference ledger of a campaign is the one `gpuwmm test -j 2`
         (the fanout workload) writes: the merged ledger must equal it
         byte for byte. *)
      if deterministic then
        check_result
          (Ledgers.check book ~key:(Campaigns.key c ^ ".ledger") (Ledgers.digest_file ledger));
      if !tracing then begin
        let out = Filename.concat dir "remerge.jsonl" in
        let t0 = now () in
        (match span "merge" (fun () -> Core.Merge.merge ~out shards) with
        | Error e -> fail "re-merge of %s: %s" id e
        | Ok _ -> ());
        let merge_s = now () -. t0 in
        rm_rf out;
        let beats =
          List.filter_map
            (fun k ->
              Option.map (fun b -> (k, b))
                (Artifacts.beats (Core.Heartbeat.hb_path (List.nth shards (k - 1)))))
            [ 1; 2 ]
        in
        traced :=
          { t_req; t_resp; t_seen; camp; spec = c; beats;
            jobs = Artifacts.job_time shards; merge_s }
          :: !traced
      end;
      List.iter
        (fun p ->
          rm_rf p;
          rm_rf (Core.Heartbeat.hb_path p))
        (ledger :: shards);
      let latency = Option.value (Journal.latency camp) ~default:(t_seen -. t_req) in
      { Workload.latency; execs = Campaigns.execs c }
  in
  let slot k = List.map run_campaign (Campaigns.list ~slot:k) in
  (* The path through the shard that finished last: it adds up from the
     submission request to the harness seeing Finished. *)
  let chain t =
    let c = t.camp in
    match
      List.fold_left
        (fun acc (k, td) ->
          match acc with Some (_, ta) when ta >= td -> acc | _ -> Some (k, td))
        None c.shard_done
    with
    | None -> None
    | Some (k, t_done) -> (
      match (List.assoc_opt k c.leased, List.assoc_opt k t.beats) with
      | Some t_lease, Some (b : Artifacts.beats) ->
        Some
          [ ("httpd.submit", c.submitted -. t.t_req);
            ("queue.wait", t_lease -. c.submitted);
            ("serve.spawn", b.first -. t_lease);
            ("serve.worker", b.final -. b.first);
            ("serve.done_lag", t_done -. b.final);
            ("merge + finish detection", t.t_seen -. t_done) ]
      | _ -> None)
  in
  let chains () = List.filter_map chain !traced in
  let chain_total name = sum (List.map (fun l -> List.assoc name l) (chains ())) in
  let rows () =
    List.map
      (fun n -> (n, chain_total n))
      [ "httpd.submit"; "queue.wait"; "serve.spawn"; "serve.worker"; "serve.done_lag";
        "merge + finish detection" ]
    @ [ ("runlog.load (verify)", span_total "runlog.load");
        ("merge (harness re-run)", span_total "merge") ]
  in
  let per_shard f =
    mean_or_zero
      (List.concat_map
         (fun t -> List.filter_map (fun (k, (b : Artifacts.beats)) -> f t k b) t.beats)
         !traced)
  in
  let merge_s () = mean_or_zero (List.map (fun t -> t.merge_s) !traced) in
  let spawn_s () =
    per_shard (fun t k b -> Option.map (fun tl -> b.first -. tl) (List.assoc_opt k t.camp.leased))
  in
  let layers (p : Workload.phase) =
    let ts = !traced in
    let n = float_of_int (List.length ts) in
    let bs = List.concat_map (fun t -> List.map snd t.beats) ts in
    let jobs = sum (List.map (fun t -> float_of_int (fst t.jobs)) ts) in
    let job_time = sum (List.map (fun t -> snd t.jobs) ts) in
    let execs = float_of_int (Workload.execs (Workload.ops p)) in
    [ Workload.layer "sim.exec_s" "s" (safe_div job_time execs);
      Workload.layer "campaign.cell_s" "s" (safe_div job_time jobs);
      Workload.layer "exec.job_s" "s" (safe_div job_time jobs);
      Workload.layer "exec.jobs" "count" (safe_div jobs n);
      Workload.layer "httpd.submit_s" "s"
        (mean_or_zero (List.map (fun t -> t.t_resp -. t.t_req) ts));
      Workload.layer "queue.wait_s" "s"
        (mean_or_zero (List.filter_map (fun t -> Journal.queue_wait t.camp) ts));
      Workload.layer "serve.spawn_s" "s" (spawn_s ());
      Workload.layer "procs.worker_s" "s" (per_shard (fun _ _ b -> Some (b.final -. b.first)));
      Workload.layer "serve.done_lag_s" "s"
        (per_shard (fun t k b ->
             Option.map (fun td -> td -. b.final) (List.assoc_opt k t.camp.shard_done)));
      Workload.layer "merge.s" "s" (merge_s ());
      Workload.layer "queue.requeues" "count"
        (float_of_int (List.fold_left (fun a t -> a + t.camp.requeues) 0 ts));
      Workload.layer "queue.journal_bytes" "bytes" (float_of_int (file_size journal_path));
      Workload.layer "runlog.load_s" "s"
        (safe_div (span_total "runlog.load") (float_of_int (span_count "runlog.load")));
      Workload.layer "heartbeat.beats" "count"
        (safe_div
           (float_of_int (List.fold_left (fun a (b : Artifacts.beats) -> a + b.count) 0 bs))
           n);
      Workload.layer "gc.minor_words_per_exec" "words"
        (safe_div (sum (List.map (fun (b : Artifacts.beats) -> b.minor_words) bs)) execs);
      Workload.layer "gc.major_collections" "count"
        (safe_div
           (float_of_int
              (List.fold_left (fun a (b : Artifacts.beats) -> a + b.major_collections) 0 bs))
           n) ]
  in
  let model _ =
    Artifacts.model ~fixed:(spawn_s () +. merge_s ()) ~fixed_name:"spawn+merge"
      (List.filter_map
         (fun t -> Option.map (fun l -> (t.spec, l)) (Journal.latency t.camp))
         !traced)
  in
  { Workload.setup;
    pool = Campaigns.pool;
    slot;
    run =
      (fun ~deadline ->
        traced := [];
        Workload.loop ~deadline ~cpu ~seed ~pool:Campaigns.pool slot);
    layers;
    rows;
    sample = (fun () -> (Campaigns.sample (Campaigns.list ~slot:0), None));
    model;
    sidecars = (fun () -> []);
    finish =
      (fun () ->
        stop_daemon ();
        rm_rf dir) }
