(* tune: the Sec. 3 tuning pipeline for one chip on Exec.Parallel 2.

   Why: Patch_finder, Seq_finder and Spread_finder make hundreds of
   thousands of two-block litmus launches, so per-launch set-up
   (Sim.with_sim / Sim.reset, the compiled-code cache, the stress
   kernels), allocation and the domain pool's dispatch dominate.  It is
   the only workload that runs the domain pool.

   A slot is one tuning run at the default budget scaled to a tenth of
   its executions, journaled to a ledger as `gpuwmm tune --log` does; it
   is the workload's one campaign, so on tune campaign_p50_s is a tuning
   run's latency.
   The three finders are called in sequence, with the seeds and
   arguments Tuning.run gives them, so the traced run can time each.
   Layer metrics it should move: sim.reset_s, gc.minor_words_per_exec,
   gc.major_collections and tuning.{patch,seq,spread}_s move execs_per_s
   here; exec.job_s, exec.queue_wait_s, exec.busy_ratio and exec.jobs
   move execs_per_s and cpu_s here. *)

open Common

let chip_name = "K20"
let chip = Option.get (Gpusim.Chip.by_name chip_name)
let budget = Core.Budget.scale_runs Core.Budget.default 0.1
let backend = Core.Exec.Parallel 2

let jobs_counter = Core.Telemetry.counter "exec.jobs"

(* Exec job spans per stage of the traced phase. *)
let stage_spans : (string * Core.Telemetry.span list * float) list ref = ref []

(* Run one stage; its executions are its Exec jobs times its runs per
   job. *)
let stage name ~runs f =
  let j0 = Core.Telemetry.counter_value jobs_counter in
  if !tracing then Core.Telemetry.set_spans true;
  let t0 = now () in
  let r = span name f in
  let t1 = now () in
  if !tracing then begin
    stage_spans := (name, Core.Telemetry.spans (), t1 -. t0) :: !stage_spans;
    Core.Telemetry.set_spans false
  end;
  (r, (Core.Telemetry.counter_value jobs_counter - j0) * runs)

let tuning ~seed ?journal () =
  let sub = Gpusim.Rng.subseed seed in
  let patch, e1 =
    stage "tuning.patch" ~runs:budget.Core.Budget.runs_patch (fun () ->
        Core.Patch_finder.run ~backend ?journal ~chip ~seed:(sub 0) ~budget ())
  in
  let sequences, e2 =
    stage "tuning.seq" ~runs:budget.Core.Budget.runs_seq (fun () ->
        Core.Seq_finder.run ~backend ?journal ~chip ~seed:(sub 1) ~budget
          ~patch:patch.Core.Patch_finder.chosen ())
  in
  let spreads, e3 =
    stage "tuning.spread" ~runs:budget.Core.Budget.runs_spread (fun () ->
        Core.Spread_finder.run ~backend ?journal ~chip ~seed:(sub 2) ~budget
          ~patch:patch.Core.Patch_finder.chosen
          ~sequence:sequences.Core.Seq_finder.winner ())
  in
  let tuned =
    { Core.Stress.sequence = sequences.Core.Seq_finder.winner;
      spread = spreads.Core.Spread_finder.winner;
      regions = budget.Core.Budget.max_spread }
  in
  ( { Core.Tuning.chip = chip_name; patch; sequences; spreads; tuned;
      elapsed_s = 0.0 },
    e1 + e2 + e3 )

(* One-time set-up: the tuned litmus environment with its stress
   kernel, the small-device simulator arena, the domain pool's GC
   settings, and one launch of each idiom. *)
let litmus_env () =
  Core.Environment.for_litmus
    (Core.Environment.sys_plus ~tuned:(Core.Tuning.shipped ~chip))

let warm_up () =
  Core.Exec.tune_gc ();
  let env = litmus_env () in
  ignore
    (Core.Exec.map ~backend
       ~f:(fun (j : _ Core.Exec.job) ->
         Litmus.Runner.run_once ~chip ~seed:j.seed ~env j.payload)
       (Core.Exec.plan ~seed:1
          (List.map
             (fun idiom -> { Litmus.Test.idiom; distance = 64 })
             Litmus.Test.idioms)))

(* The input pool: one master seed per tuning run.  A single one: tuning
   runs at different seeds differ in cost by more than the run-to-run
   noise, and a median over a mix of them jumps between runs. *)
let pool = 1

let run_seed k = Gpusim.Rng.subseed 7 k

(* The device size Litmus.Runner.run_once borrows. *)
let litmus_words = 2048

let make ~seed ~deterministic ~book =
  let dir = in_state "tune" in
  mkdir_p dir;
  warm_up ();
  let slot k =
    operation @@ fun () ->
    let run_seed = run_seed k in
    let path = Filename.concat dir (Printf.sprintf "tune-%d.jsonl" k) in
    let t0 = now () in
    let result, execs =
      span "tune.run" (fun () ->
          let sink =
            span "runlog.open" (fun () ->
                Core.Runlog.create ~deterministic ~path
                  (Core.Runlog.make_header ~campaign:"tune" ~seed:run_seed
                     ~grid:(Core.Budget.to_json budget) ()))
          in
          let journal = Core.Runlog.journal ~sink "" in
          let r, execs = tuning ~seed:run_seed ~journal () in
          span "runlog.close" (fun () ->
              Core.Runlog.append_result sink ~kind:"tuning"
                (Core.Tuning.result_to_json r);
              Core.Runlog.close sink);
          (r, execs))
    in
    let latency = now () -. t0 in
    let digest = Ledgers.tuning_digest result in
    check_result
      (Ledgers.check book ~key:(Printf.sprintf "tune.p%d.result" k) digest);
    (match span "runlog.load" (fun () -> Ledgers.tuning_result path) with
    | Error e -> fail "%s" e
    | Ok loaded ->
      if Ledgers.tuning_digest loaded <> digest then
        fail "%s: result record differs from the tuning computed" path);
    if deterministic then
      check_result
        (Ledgers.check book
           ~key:(Printf.sprintf "tune.p%d.ledger" k)
           (Ledgers.digest_file path));
    Sys.remove path;
    [ { Workload.latency; execs } ]
  in
  let gc0 = ref (Gc.quick_stat ()) in
  (* A few milliseconds each, so more samples than table5 takes. *)
  let setup () = List.init 3 (fun _ -> self_probe [ "--setup-probe"; "tune" ]) in
  let run ~deadline =
    stage_spans := [];
    gc0 := Gc.quick_stat ();
    Workload.loop ~setup ~width:2 ~deadline ~cpu:Rusage.cpu_total ~seed ~pool slot
  in
  let rows () =
    [ ("tuning.patch", span_total "tuning.patch");
      ("tuning.seq", span_total "tuning.seq");
      ("tuning.spread", span_total "tuning.spread");
      ("runlog.open+close", span_total "runlog.open" +. span_total "runlog.close");
      ("runlog.load (verify)", span_total "runlog.load") ]
  in
  let layers (p : Workload.phase) =
    let gc1 = Gc.quick_stat () in
    let execs = float_of_int (Workload.execs (Workload.ops p)) in
    let all = List.concat_map (fun (_, s, _) -> s) !stage_spans in
    let jobs = float_of_int (List.length all) in
    let run_time =
      sum (List.map (fun s -> s.Core.Telemetry.ended_at -. s.started_at) all)
    in
    let wait =
      sum (List.map (fun s -> s.Core.Telemetry.started_at -. s.queued_at) all)
    in
    let stage_wall = sum (List.map (fun (_, _, w) -> w) !stage_spans) in
    let ops = float_of_int (List.length (Workload.ops p)) in
    [ Workload.layer "sim.exec_s" "s" (safe_div run_time execs);
      Workload.layer "exec.job_s" "s" (safe_div run_time jobs);
      Workload.layer "exec.queue_wait_s" "s" (safe_div wait jobs);
      Workload.layer "exec.busy_ratio" "ratio"
        (safe_div run_time (2.0 *. stage_wall));
      Workload.layer "exec.jobs" "count" (safe_div jobs ops);
      Workload.layer "tuning.patch_s" "s" (safe_div (span_total "tuning.patch") ops);
      Workload.layer "tuning.seq_s" "s" (safe_div (span_total "tuning.seq") ops);
      Workload.layer "tuning.spread_s" "s"
        (safe_div (span_total "tuning.spread") ops);
      Workload.layer "runlog.load_s" "s"
        (safe_div (span_total "runlog.load")
           (float_of_int (span_count "runlog.load")));
      Workload.layer "gc.minor_words_per_exec" "words"
        (safe_div (gc1.Gc.minor_words -. !gc0.Gc.minor_words) execs);
      Workload.layer "gc.major_collections" "count"
        (safe_div
           (float_of_int (gc1.Gc.major_collections - !gc0.Gc.major_collections))
           ops);
      Workload.layer "sim.reset_s" "s" (Simstats.borrow_s ~chip ~words:litmus_words) ]
  in
  (* Three fixed seeds per idiom at three distances, under the tuned
     environment. *)
  let sample_runs () =
    List.concat_map
      (fun idiom ->
        List.concat_map
          (fun distance ->
            List.init 3 (fun i ->
                ( { Litmus.Test.idiom; distance },
                  Gpusim.Rng.subseed 7 (1000 + (100 * distance) + i) )))
          [ 0; 64; 256 ])
      Litmus.Test.idioms
  in
  { Workload.setup;
    pool;
    slot;
    run;
    layers;
    rows;
    sample = (fun () -> (Simstats.litmus_sample ~chip ~env:(litmus_env ()) (sample_runs ()), None));
    model = (fun _ -> []);
    sidecars =
      (fun () ->
        (* The domain pool's job spans of the last tuning run. *)
        let spans =
          List.concat_map (fun (_, s, _) -> s) (List.filteri (fun i _ -> i < 3) !stage_spans)
        in
        let path = in_state "exec.spans.json" in
        write_file path
          (Core.Json.to_string
             (Core.Telemetry.chrome_trace ~pid:(Unix.getpid ()) ~shard:"Exec.Parallel 2"
                ~span_base:0.0 ~spans [])
          ^ "\n");
        [ path ]);
    finish = (fun () -> rm_rf dir) }
