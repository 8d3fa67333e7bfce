(* The benchmark harness: one run of one workload.

     harness.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 the run measures the end-to-end metrics with tracing
   off and ledgers in deterministic mode, so every result can be checked
   byte for byte.  With --trace 1 the run spends half of its time
   untraced and half traced, both with real ledger timestamps; it prints
   the per-layer table, the self-time table of the traced half, the
   tracing overhead and (fanout, serve) the fan-out model, and writes a
   Chrome trace under .perfbench/traces/.  The last line of standard
   output is the JSON result.  Every result is checked against the
   committed reference, perfbench/reference.tsv, which

     harness.exe --record

   rewrites from the code as it stands.  See perfbench/README.md for the
   workloads and the map from layer metrics to end-to-end metrics. *)

open Perfbench
open Common

let workloads = [ "table5"; "tune"; "fanout"; "serve" ]

let make name =
  match name with
  | "table5" -> Wl_table5.make
  | "tune" -> Wl_tune.make
  | "fanout" -> Wl_fanout.make
  | "serve" -> Wl_serve.make
  | _ -> invalid_arg name

let reference = Filename.concat "perfbench" "reference.tsv"

(* The key of a workload's simulated-statistics sample: fanout and serve
   sample the same campaigns. *)
let simstats_key = function
  | "fanout" | "serve" -> "campaigns.simstats"
  | w -> w ^ ".simstats"

(* The per-layer metrics every workload's traced run reports (see
   BENCHMARK.json); the printed table has more. *)
let json_layers =
  [ ("sim.exec_s", "s"); ("exec.job_s", "s"); ("exec.jobs", "count"); ("runlog.load_s", "s");
    ("gc.minor_words_per_exec", "words"); ("gc.major_collections", "count");
    ("trace_overhead_ratio", "ratio") ]

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                          *)

let first_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let l = try Some (input_line ic) with End_of_file -> None in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> l
    | _ -> None)

let loadavg () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> "unknown"
  | s -> String.concat " " (List.filteri (fun i _ -> i < 3) (String.split_on_char ' ' s))

let nproc () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | s ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' s))

(* Only asks git when the working directory is a checkout's root, so git
   never searches the directories above it. *)
let commit () =
  match
    if Sys.file_exists ".git" then first_line "git rev-parse --short HEAD 2>/dev/null"
    else None
  with
  | None -> "none (not a git checkout)"
  | Some c ->
    let dirty =
      match first_line "git status --porcelain --untracked-files=no 2>/dev/null" with
      | Some _ -> "-dirty"
      | None -> ""
    in
    c ^ dirty

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)

let print_self_time ~wall rows =
  log "self time of the traced phase (%.3f s wall):" wall;
  List.iter
    (fun (name, s) -> log "  %-28s %9.3f s  %5.1f%%" name s (100.0 *. safe_div s wall))
    rows;
  let attributed = sum (List.map snd rows) in
  let rest = wall -. attributed in
  log "  %-28s %9.3f s  %5.1f%%" "(unattributed)" rest (100.0 *. safe_div rest wall);
  log "rows sum to %.1f%% of the traced wall (rule: within 10%%): %s"
    (100.0 *. safe_div attributed wall)
    (if Float.abs rest <= 0.1 *. wall then "ok" else "NOT MET")

let print_latencies (p : Workload.phase) =
  let rates = Workload.cycle_rates p in
  log "executions per second over %d cycle(s): min %.1f, median %.1f, max %.1f"
    (List.length rates)
    (List.fold_left Float.min infinity rates)
    (Stats.median rates)
    (List.fold_left Float.max neg_infinity rates);
  let ls = List.map (fun (o : Workload.op) -> o.latency) (Workload.ops p) in
  let n = List.length ls in
  if n > 0 then
    log "operation latency: median %.4f s over %d operation(s) in %d cycle(s)%s"
      (Stats.median ls) n (List.length p.cycles)
      (match Stats.tail_percentile ls with
      | Some (pct, v) -> Printf.sprintf ", p%g %.4f s" pct v
      | None -> " (too few samples for a tail percentile)")

let write_trace ~workload ~seed (w : Workload.t) =
  let dir = Filename.concat root "traces" in
  mkdir_p dir;
  let own = in_state "harness.spans.json" in
  write_file own
    (Core.Json.to_string
       (Core.Telemetry.chrome_trace ~pid:(Unix.getpid ())
          ~shard:("perfbench " ^ workload) ~span_base:0.0
          ~spans:(telemetry_spans ()) [])
    ^ "\n");
  let out = Filename.concat dir (Printf.sprintf "%s-s%d.json" workload seed) in
  let st, _, _ =
    run_proc ~env:(child_env [])
      ([ gpuwmm_exe (); "trace"; "--merge" ] @ (own :: w.sidecars ()) @ [ "--out"; out ])
  in
  if st = Unix.WEXITED 0 then log "chrome trace: %s" out
  else log "chrome trace merge failed (%s)" (describe st)

let metric_json (name, value, unit_) =
  ( name,
    Core.Json.Assoc
      [ ("value", Core.Json.Float value); ("unit", Core.Json.String unit_) ] )

let result_line ~correct metrics =
  Core.Json.to_string
    (Core.Json.Assoc
       [ ("correct", Core.Json.Bool correct);
         ("attempted", Core.Json.Int !attempted);
         ("failed", Core.Json.Int !failed);
         ("metrics", Core.Json.Assoc (List.map metric_json metrics)) ])

(* ------------------------------------------------------------------ *)
(* One run                                                              *)

let check_stats book ~workload stats =
  let counts = Simstats.to_list stats in
  check_result
    (Ledgers.check book ~key:(simstats_key workload)
       (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counts)));
  counts

let run ~workload ~seed ~seconds ~trace =
  let deterministic = not trace in
  Unix.putenv "GPUWMM_LEDGER_DETERMINISTIC" (if deterministic then "1" else "0");
  log "perfbench %s seed=%d seconds=%g trace=%b" workload seed seconds trace;
  log "fingerprint: nproc=%d ocaml=%s commit=%s" (nproc ()) Sys.ocaml_version (commit ());
  log "load average before: %s" (loadavg ());
  let book = Ledgers.load reference in
  ignore (make_state_dir ~workload);
  let w = make workload ~seed ~deterministic ~book in
  let outcome =
    Fun.protect ~finally:w.finish (fun () ->
        let setup = w.setup () in
        if not trace then begin
          let p = w.run ~deadline:(now () +. seconds) in
          let stats, _ = w.sample () in
          `Plain (setup, p, stats)
        end
        else begin
          let plain = w.run ~deadline:(now () +. (seconds /. 2.0)) in
          tracing := true;
          let traced = w.run ~deadline:(now () +. (seconds /. 2.0)) in
          tracing := false;
          let layers = w.layers traced and rows = w.rows () in
          let model = w.model traced in
          let stats, sample_s = w.sample () in
          write_trace ~workload ~seed w;
          `Traced (plain, traced, layers, rows, model, stats, sample_s)
        end)
  in
  rm_rf !state_dir;
  log "load average after: %s" (loadavg ());
  match outcome with
  | `Plain (setup, p, stats) ->
    ignore (check_stats book ~workload stats);
    print_latencies p;
    let setup = setup @ List.concat_map (fun (c : Workload.cycle) -> c.setup) p.cycles in
    log "set-up samples: %s s" (String.concat ", " (List.map (Printf.sprintf "%.4f") setup));
    (* On table5 and tune, which are CPU-bound, every time is brought to
       the reference host speed (see hostspeed.ml).  fanout and serve
       are reported as measured: their wall clock is mostly the
       supervisors' 0.1 s polls and sleeps, which a slow host does not
       stretch, and on them the adjustment made cpu_s noisier, not
       steadier. *)
    let cpu_bound = List.mem workload [ "table5"; "tune" ] in
    (* table5's set-up is a tenth of a second of CPU work: the middle
       half of its samples, at the reference host speed.  Elsewhere a
       sample is a few milliseconds of process and domain start-up,
       whose scheduling delays only ever add, so the fastest sample is
       the set-up's own cost.  Between two sets of serve runs the
       typical sample moved from 5.0 to 7.0 ms, the fastest from 4.7 to
       4.6 ms. *)
    let setup_s ~adjusted =
      if workload = "table5" then
        Stats.midmean setup *. if adjusted then Workload.host_speed p else 1.0
      else List.fold_left Float.min infinity setup
    in
    let metrics ~adjusted =
      let host = adjusted && cpu_bound in
      [ ("execs_per_s", Workload.execs_per_s ~host p, "1/s");
        ("campaign_p50_s", Workload.latency_p50 ~host p, "s");
        ("cpu_s", Workload.cpu_per_op ~host p, "s");
        ("setup_s", setup_s ~adjusted, "s");
        ("peak_rss_mb", Rusage.peak_rss_mb (), "MB") ]
    in
    let hosts = List.map (fun (c : Workload.cycle) -> c.host) p.cycles in
    if cpu_bound then
      log "host speed: median %.4f over %d probe(s), min %.4f, max %.4f"
        (Workload.host_speed p) (List.length hosts)
        (List.fold_left Float.min infinity hosts)
        (List.fold_left Float.max neg_infinity hosts);
    let adjusted = metrics ~adjusted:true in
    List.iter2
      (fun (n, v, u) (_, r, _) -> log "%-16s %14.6f %-4s (as measured: %.6f)" n v u r)
      adjusted (metrics ~adjusted:false);
    print_endline (result_line ~correct:(!failed = 0) adjusted)
  | `Traced (plain, traced, layers, rows, model, stats, sample_s) ->
    let counts = check_stats book ~workload stats in
    let overhead = safe_div (Workload.execs_per_s plain) (Workload.execs_per_s traced) in
    let all =
      List.map (fun (l : Workload.layer) -> (l.name, l.value, l.unit_)) layers
      @ (match sample_s with
        | Some s -> [ ("sim.ticks_per_s", safe_div (float_of_int stats.Simstats.ticks) s, "1/s") ]
        | None -> [])
      @ List.map (fun (n, v) -> (n, float_of_int v, "count")) counts
      @ [ ("trace_overhead_ratio", overhead, "ratio") ]
    in
    print_latencies traced;
    log "per-layer metrics (traced phase):";
    List.iter (fun (n, v, u) -> log "  %-26s %16.6f %s" n v u) all;
    print_self_time ~wall:traced.wall rows;
    log "trace_overhead_ratio %.4f (untraced %.2f / traced %.2f execs per s)" overhead
      (Workload.execs_per_s plain) (Workload.execs_per_s traced);
    if model <> [] then begin
      log "fan-out model:";
      List.iter (fun (n, v) -> log "  %-34s %12.4f" n v) model
    end;
    let metrics =
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun (n, _, _) -> n = name) all with
          | Some (_, v, _) -> (name, v, unit_)
          | None ->
            fail "layer metric %s not measured" name;
            (name, 0.0, unit_))
        json_layers
    in
    print_endline (result_line ~correct:(!failed = 0) metrics)

(* Every slot of every input pool once, in deterministic mode, into a
   fresh reference.  serve is not run: its merged ledgers must equal the
   ledgers fanout records. *)
let record () =
  Unix.putenv "GPUWMM_LEDGER_DETERMINISTIC" "1";
  let book = Ledgers.recording () in
  List.iter
    (fun workload ->
      ignore (make_state_dir ~workload);
      let w = make workload ~seed:0 ~deterministic:true ~book in
      Fun.protect ~finally:w.finish (fun () ->
          for k = 0 to w.pool - 1 do
            ignore (w.slot k)
          done;
          ignore (check_stats book ~workload (fst (w.sample ()))));
      rm_rf !state_dir;
      log "recorded %s: %d slot(s)" workload w.pool)
    [ "table5"; "tune"; "fanout" ];
  if !failed > 0 then begin
    log "%d failure(s); %s left as it was" !failed reference;
    exit 1
  end;
  Ledgers.save book reference;
  log "wrote %s" reference

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: harness.exe --workload table5|tune|fanout|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--record" ] -> record ()
  | [ "--setup-probe"; "table5" ] -> Wl_table5.warm_up ()
  | [ "--setup-probe"; "tune" ] -> Wl_tune.warm_up ()
  | _ ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload workloads) then usage ();
    let seconds = float_of_int (int "seconds") in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    run ~workload ~seed:(int "seed") ~seconds ~trace
