(* The perf gate's benchmark: the tracing and observability overhead
   ratios, the Table 5 campaign across --jobs 1/2/4 (each point checked
   bit-identical to serial), and Bechamel timings of three hot paths.
   The paper's tables and figures are printed by `gpuwmm table N` and
   `gpuwmm figure N`, not here.

   `--json FILE` writes every wall-clock and Bechamel timing to FILE as
   JSON.  `--gate BASELINE.json` then compares the run against a
   committed baseline: the gate fails if two domains do not beat serial
   on the Table 5 campaign (speedup_j2, from the same sweep the run
   records; skipped on single-core machines), if a hot-path
   micro-benchmark regressed by more than the tolerance (20% by default;
   GPUWMM_PERF_TOLERANCE overrides, e.g. 0.5 for noisy CI runners), or
   if either observability overhead ratio (trace_overhead_ratio,
   hb_overhead_ratio) exceeds its absolute cap. *)

open Bechamel
open Toolkit

let seed = 42

let flag_value name =
  let rec go i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
      Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

(* Machine-readable timing collection for --json. *)
let recorded : (string * float) list ref = ref []

let record name seconds = recorded := (name, seconds) :: !recorded

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  record name (Unix.gettimeofday () -. t0);
  r

let section title =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==================================================================@."

(* ------------------------------------------------------------------ *)
(* Tracing overhead                                                     *)

(* The observability layer promises to be free when off: every emit site
   in the simulator is guarded by one cached boolean.  Measure a Table 5
   cell (the heaviest per-execution workload) untraced and with the ring
   buffer enabled, and report the ratio — regressions here mean an emit
   site started allocating outside its guard.  The ratio is of two
   ~50 ms loops; halving them would double the noise band the gate has
   to absorb. *)
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
(* Hot-path micro-benchmarks                                            *)

(* The hot paths the perf gate watches: one Table 5 campaign cell (the
   heaviest per-execution workload), the litmus inner loop (the path
   behind every tuning campaign) and one model-checker verdict. *)
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

(* ------------------------------------------------------------------ *)
(* --jobs scaling sweep                                                 *)

(* The Table 5 campaign across --jobs 1/2/4.  Every point must be
   bit-identical to serial — the executor guarantee — and each point
   records both its wall-clock and its speedup_j<N> against serial in the
   --json document. *)

let sweep_jobs = [ 1; 2; 4 ]
let sweep_runs = 8
let sweep_chips = [ Gpusim.Chip.titan ]

let sweep_campaign ?backend () =
  Core.Campaign.run ?backend ~chips:sweep_chips
    ~environments_for:Core.Campaign.environments ~apps:Apps.Registry.all
    ~runs:sweep_runs ~seed ()

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
    Core.Httpd.start_routes ~port:0 (fun _ ->
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

let run_bechamel () =
  section "Bechamel micro-benchmarks";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* The gate compares absolute times, so each test buys stability with a
     long quota. *)
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 3.0) ~stabilize:false ()
  in
  let grouped =
    Test.make_grouped ~name:"gpuwmm" ~fmt:"%s/%s" hot_path_tests
  in
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

(* The perf gate, run against a committed baseline snapshot.  Three
   checks:

   - two domains must beat serial on the Table 5 campaign
     ([speedup_j2 > 1.0], read from the sweep this very run recorded —
     the gate guards the numbers --json publishes, not a separate
     measurement) — skipped on single-core machines, where no backend
     can win.  The pool is the only local backend, so this is the rule
     that says `--jobs` pays;
   - the hot-path micro-benchmarks must be within [1 + tolerance]
     of the baseline's absolute times.  The committed baseline was
     recorded on a modest container, so faster CI machines pass with
     margin; the tolerance exists for same-machine noise;
   - the observability overhead ratios must stay under an absolute
     cap. *)
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
     | None -> fail "speedup_j2 was not measured in this run"
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
  tracing_overhead ();
  observability_overhead ();
  jobs_sweep ();
  run_bechamel ();
  record "total_s" (Unix.gettimeofday () -. t0);
  Fmt.pr "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0);
  Option.iter write_json (flag_value "--json");
  Option.iter run_gate (flag_value "--gate")
