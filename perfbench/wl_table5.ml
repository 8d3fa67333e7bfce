(* table5: the Table 5 grid in-process, on one core, journaled.

   Why: long application kernels under stress make Sim scheduling and
   Memsys commits most of the work, and nothing else runs — no domain
   pool, no worker processes, no daemon, the second core idle.  It is
   the reference for simulator speed.

   A slot is one pass over chips x the 8 environments x the 10
   applications, [runs] executions per cell, at the slot's master seed:
   the workload's one campaign, so on table5 campaign_p50_s is a pass's
   latency.  The pass is what
   Campaign.run ~backend:Exec.Serial does — cells in plan order on the
   calling domain, seeds from Exec.plan, one Runlog job record per cell,
   the reduced rows as the result record — written out here so the
   traced run can time Campaign.test_app and Runlog.record separately.
   Layer metrics it should move: sim.exec_s, sim.ticks_per_s,
   campaign.cell_s and runlog.append_s all move execs_per_s here. *)

open Common

let chip_names = [ "K20"; "980" ]
let runs = 2

let chips = List.map (fun n -> Option.get (Gpusim.Chip.by_name n)) chip_names

let envs_for chip = Core.Environment.all ~tuned:(Core.Campaign.sys_tuned_for chip)

let grid () =
  List.concat_map
    (fun chip ->
      List.concat_map
        (fun env -> List.map (fun app -> (chip, env, app)) Apps.Registry.all)
        (envs_for chip))
    chips

let env_labels () =
  List.map (fun e -> e.Core.Environment.label) (envs_for (List.hd chips))

let header_grid () =
  let strs l = Core.Json.List (List.map (fun s -> Core.Json.String s) l) in
  Core.Json.Assoc
    [ ("chips", strs chip_names); ("envs", strs (env_labels ()));
      ("apps", strs (List.map (fun a -> a.Apps.App.name) Apps.Registry.all));
      ("runs", Core.Json.Int runs) ]

(* One journaled pass; returns the reduced rows. *)
let pass ~seed ~deterministic path =
  let jobs = Core.Exec.plan ~seed (grid ()) in
  let sink =
    span "runlog.open" (fun () ->
        Core.Runlog.create ~deterministic ~path
          (Core.Runlog.make_header ~campaign:"table5" ~seed
             ~grid:(header_grid ()) ()))
  in
  let journal = Core.Runlog.journal ~sink "campaign" in
  let cells =
    List.map
      (fun (j : _ Core.Exec.job) ->
        let chip, env, app = j.payload in
        let t0 = now () in
        let cell =
          span "campaign.test_app" (fun () ->
              Core.Campaign.test_app ~chip ~env ~app ~runs ~seed:j.seed)
        in
        let dt = now () -. t0 in
        span "runlog.record" (fun () ->
            Core.Runlog.record journal ~index:j.index ~seed:j.seed
              ~errors:cell.Core.Campaign.errors ~duration_s:dt
              (Core.Campaign.cell_to_json cell));
        cell)
      jobs
  in
  let rows =
    match
      Core.Campaign.rows_of_cells ~chips:chip_names ~envs:(env_labels ())
        ~apps_per_row:(List.length Apps.Registry.all) cells
    with
    | Ok rows -> rows
    | Error e -> failwith e
  in
  span "runlog.close" (fun () ->
      Core.Runlog.append_result sink ~kind:"campaign"
        (Core.Campaign.rows_to_json rows);
      Core.Runlog.close sink);
  rows

(* One-time set-up: the environments with their tuned stress kernels,
   the recycled simulator arena, and one execution of every
   application and every environment so the compiled-code cache is
   warm before timing. *)
let warm_up () =
  Core.Exec.tune_gc ();
  List.iter
    (fun chip ->
      let envs = envs_for chip in
      List.iteri
        (fun i env ->
          let app = List.nth Apps.Registry.all (i mod 10) in
          ignore (Core.Campaign.test_app ~chip ~env ~app ~runs:1 ~seed:i))
        envs;
      List.iteri
        (fun i app ->
          ignore
            (Core.Campaign.test_app ~chip ~env:(List.hd envs) ~app ~runs:1
               ~seed:i))
        Apps.Registry.all)
    chips

(* The input pool: one master seed per pass.  A single one: what a pass
   costs depends on its cell seeds (which runs time out, for one), and a
   median over a mix of passes jumps between runs. *)
let pool = 1

let pass_seed k = Gpusim.Rng.subseed 5 k

let make ~seed ~deterministic ~book =
  let dir = in_state "table5" in
  mkdir_p dir;
  warm_up ();
  let execs_per_pass = List.length (grid ()) * runs in
  let slot k =
    operation @@ fun () ->
    let path = Filename.concat dir (Printf.sprintf "pass-%d.jsonl" k) in
    let t0 = now () in
    let rows =
      span "table5.pass" (fun () -> pass ~seed:(pass_seed k) ~deterministic path)
    in
    let latency = now () -. t0 in
    let digest = Ledgers.rows_digest rows in
    check_result (Ledgers.check book ~key:(Printf.sprintf "table5.p%d.rows" k) digest);
    (match span "runlog.load" (fun () -> Ledgers.campaign_rows path) with
    | Error e -> fail "%s" e
    | Ok loaded ->
      if Ledgers.rows_digest loaded <> digest then
        fail "%s: result record differs from the rows computed" path);
    if deterministic then
      check_result
        (Ledgers.check book
           ~key:(Printf.sprintf "table5.p%d.ledger" k)
           (Ledgers.digest_file path));
    Sys.remove path;
    [ { Workload.latency; execs = execs_per_pass } ]
  in
  let rows () =
    [ ("campaign.test_app", span_total "campaign.test_app");
      ("runlog.record", span_total "runlog.record");
      ("runlog.open+close", span_total "runlog.open" +. span_total "runlog.close");
      ("runlog.load (verify)", span_total "runlog.load") ]
  in
  let gc0 = ref (Gc.quick_stat ()) in
  let setup () = [ self_probe [ "--setup-probe"; "table5" ] ] in
  let run ~deadline =
    gc0 := Gc.quick_stat ();
    Workload.loop ~setup ~deadline ~cpu:Rusage.cpu_total ~seed ~pool slot
  in
  let layers (p : Workload.phase) =
    let gc1 = Gc.quick_stat () in
    let cells = float_of_int (span_count "campaign.test_app") in
    let execs = float_of_int (Workload.execs (Workload.ops p)) in
    let exec_time = span_total "campaign.test_app" in
    let ops = float_of_int (List.length (Workload.ops p)) in
    [ Workload.layer "sim.exec_s" "s" (safe_div exec_time execs);
      Workload.layer "gc.minor_words_per_exec" "words"
        (safe_div (gc1.Gc.minor_words -. !gc0.Gc.minor_words) execs);
      Workload.layer "gc.major_collections" "count"
        (safe_div
           (float_of_int (gc1.Gc.major_collections - !gc0.Gc.major_collections))
           ops);
      Workload.layer "campaign.cell_s" "s" (safe_div exec_time cells);
      Workload.layer "exec.job_s" "s" (safe_div exec_time cells);
      Workload.layer "exec.jobs" "count" (safe_div cells ops);
      Workload.layer "runlog.append_s" "s"
        (safe_div (span_total "runlog.record") cells);
      Workload.layer "runlog.load_s" "s"
        (safe_div (span_total "runlog.load")
           (float_of_int (span_count "runlog.load")));
      Workload.layer "sim.reset_s" "s"
        (Simstats.borrow_s ~chip:(List.hd chips) ~words:65536) ]
  in
  (* One cell per row of the grid of pool slot 0, a different
     application in each. *)
  let sample_cells () =
    List.filteri
      (fun i _ -> i mod 10 = i / 10 mod 10)
      (List.map
         (fun (j : _ Core.Exec.job) ->
           let chip, env, app = j.payload in
           (chip, env, app, j.seed))
         (Core.Exec.plan ~seed:(pass_seed 0) (grid ())))
  in
  { Workload.setup;
    pool;
    slot;
    run;
    layers;
    rows;
    sample =
      (fun () ->
        let stats, seconds = Simstats.app_sample (sample_cells ()) in
        (stats, Some seconds));
    model = (fun _ -> []);
    sidecars = (fun () -> []);
    finish = (fun () -> rm_rf dir) }
