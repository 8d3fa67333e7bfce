(* Benchmark harness: regenerates every table and figure of the paper at a
   scaled-down budget (part 1), times the code behind each experiment
   with Bechamel, one Test.make per table/figure (part 2), and compares
   the serial and parallel execution backends on the two heaviest
   campaigns (part 3).

   Paper-scale budgets are available from the CLI, e.g.:
     gpuwmm table 2 --all-chips --full

   With `--json FILE` (or `dune exec bench/main.exe -- --json FILE`), all
   wall-clock and Bechamel timings are also written to FILE as JSON.

   `--quick` restricts the run to the perf-critical subset (the
   tracing/observability overhead ratios, the --jobs scaling sweep, and
   the hot-path micro-benchmarks) at reduced budgets — minutes, not tens
   of minutes — and `--gate BASELINE.json` then compares the run against
   a committed baseline: the gate fails if two domains do not beat
   serial on the Table 5 campaign (speedup_j2, from the same sweep the
   run records; skipped on single-core machines), if a hot-path
   micro-benchmark regressed by more than the tolerance (20% by
   default; GPUWMM_PERF_TOLERANCE overrides, e.g. 0.5 for noisy CI
   runners), or if either observability overhead ratio
   (trace_overhead_ratio, hb_overhead_ratio) exceeds its absolute cap. *)

open Bechamel
open Toolkit

let seed = 42

let has_flag name = Array.exists (String.equal name) Sys.argv

let flag_value name =
  let rec go i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
      Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let quick_mode = has_flag "--quick"

(* Machine-readable timing collection for --json. *)
let recorded : (string * float) list ref = ref []

let record name seconds = recorded := (name, seconds) :: !recorded

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  record name (Unix.gettimeofday () -. t0);
  r

(* Two chips covering both patch-size architectures keep the printing
   phase inside minutes; the CLI reproduces everything on all seven. *)
let bench_chips = [ Gpusim.Chip.titan; Gpusim.Chip.c2075 ]

let bench_budget = Core.Budget.default

let section title =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==================================================================@."

(* ------------------------------------------------------------------ *)
(* Part 1: print the (scaled) tables and figures                        *)

let print_table1 () =
  section "Table 1 (chip inventory)";
  Core.Report.table1 Fmt.stdout

let print_fig3 () =
  section
    (Printf.sprintf
       "Figure 3 (patch finding; %d runs/point, locations at stride %d)"
       bench_budget.Core.Budget.runs_patch
       bench_budget.Core.Budget.location_stride);
  List.map
    (fun chip ->
      let r = Core.Patch_finder.run ~chip ~seed ~budget:bench_budget () in
      Core.Report.figure3 Fmt.stdout ~chip:chip.Gpusim.Chip.name r;
      (chip, r))
    bench_chips

let print_table2_3 patches =
  section "Tables 2 and 3 (tuned parameters; scaled campaign)";
  let results =
    List.map
      (fun (chip, patch) ->
        let t0 = Unix.gettimeofday () in
        let sequences =
          Core.Seq_finder.run ~chip ~seed ~budget:bench_budget
            ~patch:patch.Core.Patch_finder.chosen ()
        in
        let spreads =
          Core.Spread_finder.run ~chip ~seed ~budget:bench_budget
            ~patch:patch.Core.Patch_finder.chosen
            ~sequence:sequences.Core.Seq_finder.winner ()
        in
        let tuned =
          { Core.Stress.sequence = sequences.Core.Seq_finder.winner;
            spread = spreads.Core.Spread_finder.winner;
            regions = bench_budget.Core.Budget.max_spread }
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        ( { Core.Tuning.chip = chip.Gpusim.Chip.name; patch; sequences;
            spreads; tuned; elapsed_s = elapsed },
          elapsed /. 60.0 ))
      patches
  in
  Core.Report.table2 Fmt.stdout results;
  (match results with
  | (r, _) :: _ -> Core.Report.table3 Fmt.stdout r.Core.Tuning.sequences
  | [] -> ());
  results

let print_fig4 results =
  section "Figure 4 (spread finding)";
  List.iter
    (fun ((r : Core.Tuning.result), _) ->
      Core.Report.figure4 Fmt.stdout ~chip:r.Core.Tuning.chip
        r.Core.Tuning.spreads)
    results

let print_table4 () =
  section "Table 4 (application case studies)";
  Core.Report.table4 Fmt.stdout

let campaign_runs = 25

let print_table5 () =
  section
    (Printf.sprintf "Table 5 (testing environments; %d runs per combination)"
       campaign_runs);
  let rows =
    Core.Campaign.run ~chips:bench_chips
      ~environments_for:(fun chip ->
        Core.Environment.all ~tuned:(Core.Tuning.shipped ~chip))
      ~apps:Apps.Registry.all ~runs:campaign_runs ~seed ()
  in
  Core.Report.table5 Fmt.stdout rows

let harden_config chip =
  { (Core.Harden.default_config ~chip) with stability_runs = 100 }

let print_table6 () =
  section "Table 6 (empirical fence insertion)";
  let results =
    List.concat_map
      (fun app ->
        List.map
          (fun chip ->
            Core.Harden.insert ~chip ~config:(harden_config chip) ~app ~seed ())
          bench_chips)
      Apps.Registry.fence_free
  in
  Core.Report.table6 Fmt.stdout results;
  results

let print_fig5 harden_results =
  section "Figure 5 (cost of fences)";
  let emp_for chip app =
    match
      List.find_opt
        (fun r ->
          r.Core.Harden.app = app.Apps.App.name
          && r.Core.Harden.chip = chip.Gpusim.Chip.name)
        harden_results
    with
    | Some r -> r.Core.Harden.fences
    | None -> []
  in
  let points =
    Core.Cost.run ~chips:bench_chips ~apps:Apps.Registry.fence_free ~emp_for
      ~runs:15 ~seed ()
  in
  Core.Report.figure5 Fmt.stdout points

(* ------------------------------------------------------------------ *)
(* Part 1b: tracing overhead                                            *)

(* The observability layer promises to be free when off: every emit site
   in the simulator is guarded by one cached boolean.  Measure a Table 5
   cell (the heaviest per-execution workload) untraced and with the ring
   buffer enabled, and report the ratio — regressions here mean an emit
   site started allocating outside its guard. *)
(* Same rep count under --quick: the measurement is a ratio of two
   ~50 ms loops, and halving them doubles the noise band the gate
   then has to absorb. *)
let overhead_reps = 40

(* One Table 5 cell (the heaviest per-execution workload), repeated. *)
let overhead_cell ?(traced = false) () =
  let chip = Gpusim.Chip.titan in
  let app = Option.get (Apps.Registry.by_name "cbe-dot") in
  let tuned = Core.Tuning.shipped ~chip in
  let env = Core.Environment.sys_plus ~tuned in
  for i = 0 to overhead_reps - 1 do
    let sim = Gpusim.Sim.create ~chip ~seed:(Gpusim.Rng.subseed seed i) () in
    Gpusim.Sim.set_environment sim (Core.Environment.for_app env);
    if traced then Gpusim.Trace.enable (Gpusim.Sim.trace sim);
    ignore (app.Apps.App.run sim Apps.App.Original)
  done

let tracing_overhead () =
  section "Tracing overhead: disabled vs ring buffer enabled (Table 5 cell)";
  overhead_cell ();  (* warm-up *)
  timed "trace_off_s" (fun () -> overhead_cell ());
  timed "trace_on_s" (fun () -> overhead_cell ~traced:true ());
  let toff = List.assoc "trace_off_s" !recorded in
  let ton = List.assoc "trace_on_s" !recorded in
  let ratio = if toff > 0.0 then ton /. toff else 0.0 in
  record "trace_overhead_ratio" ratio;
  Fmt.pr
    "%d executions: untraced %.3f s | traced %.3f s | enabled/disabled \
     ratio %.3fx@."
    overhead_reps toff ton ratio

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks, one per table/figure              *)

let quick = Core.Budget.quick

(* The two hot-path micro-benchmarks the perf gate watches: the litmus
   inner loop (the 7.4µs/run path behind every tuning campaign) and one
   Table 5 campaign cell (the heaviest per-execution workload). *)
let hot_path_tests =
  let chip = Gpusim.Chip.titan in
  let app = Option.get (Apps.Registry.by_name "cbe-dot") in
  let tuned = Core.Tuning.shipped ~chip in
  [ Test.make ~name:"table5_campaign_cell"
      (Staged.stage (fun () ->
           Core.Campaign.test_app ~chip
             ~env:(Core.Environment.sys_plus ~tuned)
             ~app ~runs:5 ~seed:1));
    Test.make ~name:"litmus_execution"
      (Staged.stage (fun () ->
           Litmus.Runner.run_once ~chip ~seed:1
             { Litmus.Test.idiom = Litmus.Test.MP; distance = 64 }));
    (* One full model-checker verdict on the canonical weak MP instance
       (program construction + DPOR exploration + SC baseline): the cost
       of proving one litmus cell, which the check subcommand and the
       cross-validation tests pay per case. *)
    Test.make ~name:"check_litmus"
      (Staged.stage (fun () ->
           Gpusim.Mcheck.check ~chip:Gpusim.Chip.k20 ~max_reorderings:2
             (Core.Check.litmus_program
                { Litmus.Test.idiom = Litmus.Test.MP; distance = 31 }
                ~fenced:false))) ]

let bench_tests =
  let chip = Gpusim.Chip.titan in
  let app = Option.get (Apps.Registry.by_name "cbe-dot") in
  let tuned = Core.Tuning.shipped ~chip in
  hot_path_tests
  @ [ Test.make ~name:"table1_chips"
      (Staged.stage (fun () -> Fmt.str "%t" Core.Report.table1));
    Test.make ~name:"fig3_patch_finding"
      (Staged.stage (fun () ->
           Core.Patch_finder.run ~chip ~seed:1 ~budget:quick ()));
    Test.make ~name:"table2_tuning"
      (Staged.stage (fun () -> Core.Tuning.run ~chip ~seed:1 ~budget:quick ()));
    Test.make ~name:"table3_sequences"
      (Staged.stage (fun () ->
           Core.Seq_finder.run ~chip ~seed:1 ~budget:quick ~patch:32 ()));
    Test.make ~name:"fig4_spread"
      (Staged.stage (fun () ->
           Core.Spread_finder.run ~chip ~seed:1 ~budget:quick ~patch:32
             ~sequence:tuned.Core.Stress.sequence ()));
    Test.make ~name:"table4_app_execution"
      (Staged.stage (fun () ->
           let sim = Gpusim.Sim.create ~chip ~seed:1 () in
           app.Apps.App.run sim Apps.App.Original));
    Test.make ~name:"table6_harden"
      (Staged.stage (fun () ->
           Core.Harden.insert ~chip
             ~config:
               { (Core.Harden.default_config ~chip) with
                 initial_iterations = 8; stability_runs = 16 }
             ~app ~seed:1 ()));
      Test.make ~name:"fig5_cost_point"
        (Staged.stage (fun () ->
             Core.Cost.measure ~chip ~app ~fencing:Apps.App.Conservative
               ~runs:3 ~seed:1)) ]

(* ------------------------------------------------------------------ *)
(* Part 3: --jobs scaling sweep                                         *)

(* The Table 5 campaign across --jobs 1/2/4/8 (1/2/4 under --quick).
   Every point must be bit-identical to serial — the executor guarantee —
   and each point records both its wall-clock and its speedup_j<N>
   against serial in the --json document. *)

let sweep_jobs = if quick_mode then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ]
let sweep_runs = if quick_mode then 8 else campaign_runs
let sweep_chips = if quick_mode then [ Gpusim.Chip.titan ] else bench_chips

let sweep_campaign ?backend () =
  Core.Campaign.run ?backend ~chips:sweep_chips
    ~environments_for:(fun chip ->
      Core.Environment.all ~tuned:(Core.Tuning.shipped ~chip))
    ~apps:Apps.Registry.all ~runs:sweep_runs ~seed ()

(* The fleet-observability layer's cost on the whole Table 5 campaign
   (the unit it actually monitors), at a denser load than any real
   deployment: a 4 Hz heartbeat emitter (vs the 1 s production
   default), the HTTP endpoint server up, and a scraper hitting
   /metrics four times a second (vs a Prometheus scraper's
   multi-second cadence).  Heartbeats and scrapes are per-interval,
   not per-job, so the workload must be seconds long — a micro-short
   loop would measure the fixed scrape cost, not the layer's drag on
   the campaign. *)
let observability_overhead () =
  section
    "Observability overhead: heartbeat emitter + HTTP endpoints vs off \
     (Table 5 campaign)";
  let campaign () = ignore (sweep_campaign ()) in
  campaign ();  (* warm-up *)
  timed "hb_off_s" campaign;
  let hb = Filename.temp_file "gpuwmm-bench" ".hb" in
  let emitter = Core.Heartbeat.start ~interval_s:0.25 ~path:hb () in
  let server =
    Core.Httpd.start ~port:0 (fun _ ->
        Core.Httpd.respond
          (Core.Telemetry.prometheus (Core.Telemetry.snapshot ())))
  in
  let port = Core.Httpd.port server in
  let scraping = Atomic.make true in
  let scrapes = Atomic.make 0 in
  let scraper =
    Domain.spawn (fun () ->
        while Atomic.get scraping do
          (try
             ignore (Core.Httpd.fetch ~port "/metrics");
             Atomic.incr scrapes
           with Unix.Unix_error _ -> ());
          Unix.sleepf 0.25
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set scraping false;
      Domain.join scraper;
      Core.Httpd.stop server;
      Core.Heartbeat.stop emitter;
      try Sys.remove hb with Sys_error _ -> ())
    (fun () -> timed "hb_on_s" campaign);
  let toff = List.assoc "hb_off_s" !recorded in
  let ton = List.assoc "hb_on_s" !recorded in
  let ratio = if toff > 0.0 then ton /. toff else 0.0 in
  record "hb_overhead_ratio" ratio;
  Fmt.pr
    "campaign: unmonitored %.3f s | monitored %.3f s (%d scrapes served) | \
     ratio %.3fx@."
    toff ton (Atomic.get scrapes) ratio

let jobs_sweep () =
  section "Executor scaling: Table 5 campaign across --jobs";
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "machine: %d recommended domain(s); %d runs per cell on %d chip(s)@."
    cores sweep_runs
    (List.length sweep_chips);
  if cores < 2 then
    Fmt.pr
      "note: a single core cannot show parallel speedup; the sweep still \
       checks determinism@.";
  let run backend = sweep_campaign ~backend () in
  let serial = timed "table5_campaign_serial_s" (fun () -> run Core.Exec.Serial) in
  let ts = List.assoc "table5_campaign_serial_s" !recorded in
  Fmt.pr "%-12s %6.2f s@." "serial" ts;
  List.iter
    (fun n ->
      let key = Printf.sprintf "table5_campaign_j%d_s" n in
      let r = timed key (fun () -> run (Core.Exec.Parallel n)) in
      let tn = List.assoc key !recorded in
      let sp = if tn > 0.0 then ts /. tn else 0.0 in
      record (Printf.sprintf "speedup_j%d" n) sp;
      Fmt.pr "%-12s %6.2f s | speedup %.2fx | identical to serial: %b@."
        (Printf.sprintf "--jobs %d" n)
        tn sp (r = serial);
      if r <> serial then
        failwith
          (Printf.sprintf "--jobs %d: campaign results diverge from serial" n))
    sweep_jobs

(* Full runs additionally cross-check the Sec. 3 tuning sweep across
   backends (wall-clock fields are excluded from the comparison). *)
let tuning_backend_check () =
  section "Executor backends: Sec. 3 tuning sweep, serial vs parallel";
  let cores = Domain.recommended_domain_count () in
  let jobs = Int.max 2 (Int.min 4 cores) in
  let run backend =
    Core.Tuning.run ~backend ~chip:Gpusim.Chip.titan ~seed ~budget:bench_budget
      ()
  in
  let rs = timed "sec3_tuning_sweep_serial_s" (fun () -> run Core.Exec.Serial) in
  let rp =
    timed
      (Printf.sprintf "sec3_tuning_sweep_parallel%d_s" jobs)
      (fun () -> run (Core.Exec.Parallel jobs))
  in
  let equal (a : Core.Tuning.result) b =
    a.Core.Tuning.patch = b.Core.Tuning.patch
    && a.Core.Tuning.sequences = b.Core.Tuning.sequences
    && a.Core.Tuning.spreads = b.Core.Tuning.spreads
    && a.Core.Tuning.tuned = b.Core.Tuning.tuned
  in
  let ts = List.assoc "sec3_tuning_sweep_serial_s" !recorded in
  let tp =
    List.assoc (Printf.sprintf "sec3_tuning_sweep_parallel%d_s" jobs) !recorded
  in
  Fmt.pr
    "serial %6.2f s | parallel (%d jobs) %6.2f s | speedup %.2fx | identical \
     results: %b@."
    ts jobs tp
    (if tp > 0.0 then ts /. tp else 0.0)
    (equal rs rp);
  if not (equal rs rp) then
    failwith "sec3_tuning_sweep: serial and parallel results diverge"

let run_bechamel ~tests () =
  section "Bechamel micro-benchmarks";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* The gate compares absolute times, so quick runs buy stability with a
     longer quota per test (there are only two of them). *)
  let quota = if quick_mode then 3.0 else 0.5 in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"gpuwmm" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
    |> List.sort compare
  in
  Fmt.pr "%-32s %14s %10s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, r) ->
      let time_ns =
        match Analyze.OLS.estimates r with
        | Some [ t ] -> t
        | Some _ | None -> nan
      in
      if not (Float.is_nan time_ns) then
        record (name ^ "_ns") time_ns;
      let pretty =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e9 then Fmt.str "%.2f s" (time_ns /. 1e9)
        else if time_ns > 1e6 then Fmt.str "%.2f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Fmt.str "%.2f us" (time_ns /. 1e3)
        else Fmt.str "%.0f ns" time_ns
      in
      let r2 =
        match Analyze.OLS.r_square r with
        | Some v -> Fmt.str "%.3f" v
        | None -> "-"
      in
      Fmt.pr "%-32s %14s %10s@." name pretty r2)
    rows

(* ------------------------------------------------------------------ *)
(* Perf gate                                                            *)

(* Timing lookup by exact name, falling back to suffix match (Bechamel
   rows are recorded under their grouped name, "gpuwmm/<test>_ns"). *)
let lookup name entries =
  match List.assoc_opt name entries with
  | Some v -> Some v
  | None ->
    List.find_map
      (fun (k, v) ->
        let lk = String.length k and ln = String.length name in
        if lk > ln && String.sub k (lk - ln) ln = name then Some v else None)
      entries

let gate_tolerance () =
  match Sys.getenv_opt "GPUWMM_PERF_TOLERANCE" with
  | None -> 0.20
  | Some s -> (
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> f
    | Some _ | None ->
      Fmt.epr "ignoring malformed GPUWMM_PERF_TOLERANCE=%s@." s;
      0.20)

(* The perf gate, run against a committed baseline snapshot.  Two
   checks, both about the refactor's headline promises:

   - two domains must beat serial on the Table 5 campaign
     ([speedup_j2 > 1.0], read from the sweep this very run recorded —
     the gate guards the numbers --json publishes, not a separate
     measurement) — skipped on single-core machines, where no backend
     can win.  The pool is the only local backend, so this is the rule
     that says `--jobs` pays;
   - the hot-path micro-benchmarks must be within [1 + tolerance]
     of the baseline's absolute times.  The committed baseline was
     recorded on a modest container, so faster CI machines pass with
     margin; the tolerance exists for same-machine noise. *)
let run_gate baseline_path =
  section (Printf.sprintf "Perf gate (baseline %s)" baseline_path);
  let entries = List.rev !recorded in
  let baseline =
    let ic = open_in baseline_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Core.Json.of_string s with
    | Error e -> failwith (Printf.sprintf "%s: unparseable: %s" baseline_path e)
    | Ok doc -> (
      match Core.Json.member "timings" doc with
      | Some (Core.Json.Assoc kvs) ->
        List.filter_map
          (fun (k, v) ->
            match Core.Json.to_float v with
            | Some f -> Some (k, f)
            | None -> None)
          kvs
      | Some _ | None ->
        failwith (baseline_path ^ ": no \"timings\" object"))
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* Check 1: two domains beat serial, per the recorded sweep. *)
  (if Domain.recommended_domain_count () >= 2 then
     match lookup "speedup_j2" entries with
     | Some sp ->
       Fmt.pr "domain pool --jobs 2: speedup %.2fx: %s@." sp
         (if sp > 1.0 then "ok" else "NOT FASTER THAN SERIAL");
       if sp <= 1.0 then
         fail
           "--jobs 2 (speedup %.2fx) does not beat serial: the domain pool \
            is not paying for its domains"
           sp
     | None -> fail "gate needs the --jobs sweep; run with the sweep enabled"
   else
     Fmt.pr
       "single core: skipping the pool-vs-serial check (cannot show \
        speedup on this machine)@.");
  (* Check 2: hot-path micro-benchmarks vs the committed baseline. *)
  let tol = gate_tolerance () in
  List.iter
    (fun metric ->
      match (lookup metric entries, lookup metric baseline) with
      | Some cur, Some base when base > 0.0 ->
        let ratio = cur /. base in
        Fmt.pr "%-28s %10.0f ns vs baseline %10.0f ns (%.2fx): %s@." metric
          cur base ratio
          (if ratio <= 1.0 +. tol then "ok" else "REGRESSION");
        if ratio > 1.0 +. tol then
          fail "%s regressed %.0f%% over baseline (tolerance %.0f%%)" metric
            ((ratio -. 1.0) *. 100.0)
            (tol *. 100.0)
      | Some _, _ ->
        Fmt.pr "%-28s not in baseline; skipping@." metric
      | None, _ -> fail "%s was not measured in this run" metric)
    [ "litmus_execution_ns"; "table5_campaign_cell_ns"; "check_litmus_ns" ];
  (* Check 3: the observability layers stay cheap.  Absolute caps rather
     than baseline deltas — the promise is "monitoring a campaign does
     not meaningfully slow it", not "no slower than last time".  The
     ring-buffer trace has measured ~1.26x (BENCH_2) with a noise band
     of roughly ±0.4 on a virtualised single core; the heartbeat +
     endpoint layer beats and scrapes off the hot path and measures
     ~1.1x.  The cap is set above the noise band but below the
     signature of a structural regression (an emit site allocating
     outside its guard, a scrape on the hot path — those cost 2x+). *)
  let ratio_cap = 2.0 in
  List.iter
    (fun metric ->
      match lookup metric entries with
      | Some r ->
        Fmt.pr "%-28s %.3fx (cap %.1fx): %s@." metric r ratio_cap
          (if r <= ratio_cap then "ok" else "TOO EXPENSIVE");
        if r > ratio_cap then
          fail "%s is %.2fx (cap %.1fx): observability is slowing the \
                workload it watches"
            metric r ratio_cap
      | None -> fail "%s was not measured in this run" metric)
    [ "trace_overhead_ratio"; "hb_overhead_ratio" ];
  match !failures with
  | [] -> Fmt.pr "perf gate: ok@."
  | fs ->
    List.iter (fun f -> Fmt.epr "perf gate: %s@." f) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let json_out () = flag_value "--json"

let write_json path =
  let entries = List.rev !recorded in
  let doc =
    Core.Json.Assoc
      [ ("schema", Core.Json.Int 2);
        ("unix_time", Core.Json.Float (Unix.time ()));
        ("default_jobs", Core.Json.Int (Core.Exec.default_jobs ()));
        ( "timings",
          Core.Json.Assoc
            (List.map (fun (name, v) -> (name, Core.Json.Float v)) entries) );
        ( "telemetry",
          Core.Telemetry.snapshot_to_json (Core.Telemetry.snapshot ()) ) ]
  in
  let oc = open_out path in
  output_string oc (Core.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." path

let () =
  let t0 = Unix.gettimeofday () in
  if quick_mode then begin
    tracing_overhead ();
    observability_overhead ();
    jobs_sweep ();
    run_bechamel ~tests:hot_path_tests ()
  end
  else begin
    timed "table1_s" print_table1;
    let patches = timed "fig3_s" print_fig3 in
    let tuning = timed "table2_3_s" (fun () -> print_table2_3 patches) in
    timed "fig4_s" (fun () -> print_fig4 tuning);
    timed "table4_s" print_table4;
    timed "table5_s" print_table5;
    let harden_results = timed "table6_s" print_table6 in
    timed "fig5_s" (fun () -> print_fig5 harden_results);
    tracing_overhead ();
    observability_overhead ();
    jobs_sweep ();
    tuning_backend_check ();
    run_bechamel ~tests:bench_tests ()
  end;
  record "total_s" (Unix.gettimeofday () -. t0);
  Fmt.pr "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0);
  Option.iter write_json (json_out ());
  Option.iter run_gate (flag_value "--gate")
