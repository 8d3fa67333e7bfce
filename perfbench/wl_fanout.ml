(* fanout: small campaigns through `gpuwmm test -j 2 --log`, one at a
   time.

   Why: each campaign is two worker processes under Procs.fan_out plus
   the parent's replay pass over their shard ledgers.  The campaigns are
   small, so the fixed costs are a large share of each: process spawn,
   runtime start-up, the heartbeat domains, the supervisor's 0.1 s
   waitpid poll and the final pass.  With serve, it runs identical work
   through both worker supervisors.

   A slot is one list of campaigns; a campaign's latency is
   spawn of the CLI to its exit.  Layer metrics it should move:
   procs.spawn_s, procs.worker_s, procs.reap_lag_s, procs.replay_s and
   procs.respawns move campaign_p50_s here; runlog.load_s moves
   campaign_p50_s; heartbeat.beats moves cpu_s. *)

open Common

type traced = {
  camp : Campaigns.t;
  t_spawn : float;
  t_exit : float;
  workers : Artifacts.beats list;
  parent : Artifacts.beats option;
  jobs : int * float;
}

let make ~seed ~deterministic ~book =
  let dir = in_state "fanout" in
  mkdir_p dir;
  let env =
    child_env (if deterministic then [ ("GPUWMM_LEDGER_DETERMINISTIC", "1") ] else [])
  in
  let traced = ref [] in
  let keep = ref [] in
  let run_campaign ~slot ~i (c : Campaigns.t) =
    operation @@ fun () ->
    let cdir = Filename.concat dir (Printf.sprintf "c%d-%d" slot i) in
    mkdir_p cdir;
    let log = Filename.concat cdir "campaign.jsonl" in
    let st, t0, t1 =
      span "fanout.campaign" (fun () ->
          run_proc ~env (Campaigns.test_argv c ~log ~spans:!tracing))
    in
    if st <> Unix.WEXITED 0 then fail "%s: gpuwmm test %s" (Campaigns.key c) (describe st);
    (match span "runlog.load" (fun () -> Ledgers.campaign_rows log) with
    | Error e -> fail "%s" e
    | Ok rows ->
      check_result
        (Ledgers.check book ~key:(Campaigns.key c ^ ".rows") (Ledgers.rows_digest rows)));
    if deterministic then
      check_result
        (Ledgers.check book ~key:(Campaigns.key c ^ ".ledger") (Ledgers.digest_file log));
    let shards = List.map (fun k -> Printf.sprintf "%s.shard%d" log k) [ 1; 2 ] in
    span "artifacts" (fun () ->
        let workers =
          List.filter_map (fun p -> Artifacts.beats (Core.Heartbeat.hb_path p)) shards
        in
        List.iter
          (fun (b : Artifacts.beats) ->
            if b.respawns > 0 then
              fail "%s: a worker needed %d respawn(s)" (Campaigns.key c) b.respawns)
          workers;
        if !tracing then
          traced :=
            { camp = c; t_spawn = t0; t_exit = t1; workers;
              parent = Artifacts.beats (Core.Heartbeat.hb_path log);
              jobs = Artifacts.job_time shards }
            :: !traced);
    if !tracing then begin
      List.iter rm_rf !keep;
      keep := [ cdir ]
    end
    else rm_rf cdir;
    { Workload.latency = t1 -. t0; execs = Campaigns.execs c }
  in
  let slot k = List.mapi (fun i c -> run_campaign ~slot:k ~i c) (Campaigns.list ~slot:k) in
  (* The path through the worker that finished last, as chained
     timestamps: they add up to the campaign's latency. *)
  let chain t =
    match (t.workers, t.parent) with
    | [], _ | _, None -> None
    | w :: ws, Some p ->
      let crit =
        List.fold_left
          (fun (a : Artifacts.beats) (b : Artifacts.beats) ->
            if b.final > a.final then b else a)
          w ws
      in
      Some
        [ ("procs.spawn", crit.first -. t.t_spawn);
          ("procs.worker", crit.final -. crit.first);
          ("procs.reap_lag", p.first -. crit.final);
          ("procs.replay", p.final -. p.first);
          ("cli.exit", t.t_exit -. p.final) ]
  in
  let chains () = List.filter_map chain !traced in
  let chain_total name = sum (List.map (fun l -> List.assoc name l) (chains ())) in
  let per_campaign name =
    safe_div (chain_total name) (float_of_int (List.length (chains ())))
  in
  let rows () =
    List.map
      (fun n -> (n, chain_total n))
      [ "procs.spawn"; "procs.worker"; "procs.reap_lag"; "procs.replay"; "cli.exit" ]
    @ [ ("runlog.load (verify)", span_total "runlog.load");
        ("heartbeat+ledger parse", span_total "artifacts") ]
  in
  let layers (p : Workload.phase) =
    let ts = !traced in
    let n = float_of_int (List.length ts) in
    let ws = List.concat_map (fun t -> t.workers) ts in
    let procs = ws @ List.filter_map (fun t -> t.parent) ts in
    let jobs = sum (List.map (fun t -> float_of_int (fst t.jobs)) ts) in
    let job_time = sum (List.map (fun t -> snd t.jobs) ts) in
    let execs = float_of_int (Workload.execs (Workload.ops p)) in
    [ Workload.layer "sim.exec_s" "s" (safe_div job_time execs);
      Workload.layer "campaign.cell_s" "s" (safe_div job_time jobs);
      Workload.layer "exec.job_s" "s" (safe_div job_time jobs);
      Workload.layer "exec.jobs" "count" (safe_div jobs n);
      Workload.layer "procs.spawn_s" "s"
        (mean_or_zero
           (List.concat_map
              (fun t ->
                List.map (fun (b : Artifacts.beats) -> b.first -. t.t_spawn) t.workers)
              ts));
      Workload.layer "procs.worker_s" "s"
        (mean_or_zero (List.map (fun (b : Artifacts.beats) -> b.final -. b.first) ws));
      Workload.layer "procs.reap_lag_s" "s" (per_campaign "procs.reap_lag");
      Workload.layer "procs.replay_s" "s" (per_campaign "procs.replay");
      Workload.layer "procs.respawns" "count"
        (float_of_int (List.fold_left (fun a (b : Artifacts.beats) -> a + b.respawns) 0 ws));
      Workload.layer "runlog.load_s" "s"
        (safe_div (span_total "runlog.load") (float_of_int (span_count "runlog.load")));
      Workload.layer "heartbeat.beats" "count"
        (safe_div
           (float_of_int (List.fold_left (fun a (b : Artifacts.beats) -> a + b.count) 0 procs))
           n);
      Workload.layer "gc.minor_words_per_exec" "words"
        (safe_div (sum (List.map (fun (b : Artifacts.beats) -> b.minor_words) procs)) execs);
      Workload.layer "gc.major_collections" "count"
        (safe_div
           (float_of_int
              (List.fold_left (fun a (b : Artifacts.beats) -> a + b.major_collections) 0 procs))
           n) ]
  in
  let model _ =
    Artifacts.model
      ~fixed:(per_campaign "procs.spawn" +. per_campaign "procs.replay")
      ~fixed_name:"spawn+replay"
      (List.map (fun t -> (t.camp, t.t_exit -. t.t_spawn)) !traced)
  in
  let warm i =
    let log = Filename.concat dir (Printf.sprintf "warm-%d.jsonl" i) in
    let st, t0, t1 =
      run_proc ~env
        [ gpuwmm_exe (); "test"; "--chip"; "K20"; "--app"; "sdk-red"; "--runs"; "1";
          "--seed"; string_of_int seed; "-j"; "2"; "-q"; "--log"; log ]
    in
    if st <> Unix.WEXITED 0 then fail "warm-up campaign: %s" (describe st);
    List.iter
      (fun p ->
        rm_rf p;
        rm_rf (Core.Heartbeat.hb_path p))
      [ log; log ^ ".shard1"; log ^ ".shard2" ];
    t1 -. t0
  in
  { Workload.setup = (fun () -> List.init 9 warm);
    pool = Campaigns.pool;
    slot;
    run =
      (fun ~deadline ->
        traced := [];
        Workload.loop ~deadline ~cpu:Rusage.cpu_total ~seed ~pool:Campaigns.pool slot);
    layers;
    rows;
    sample = (fun () -> (Campaigns.sample (Campaigns.list ~slot:0), None));
    model;
    sidecars =
      (fun () ->
        List.concat_map
          (fun d ->
            List.map (Filename.concat d)
              (List.filter
                 (fun f -> Filename.check_suffix f ".spans.json")
                 (Array.to_list (Sys.readdir d))))
          !keep);
    finish = (fun () -> rm_rf dir) }
