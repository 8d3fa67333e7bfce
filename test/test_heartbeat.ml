(* Fleet observability: the heartbeat codec and emitter, staleness
   classification, the fleet aggregation rules, the /status golden
   document, the HTTP endpoint server, and the Prometheus exposition. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tmp_hb () =
  let f = Filename.temp_file "gpuwmm-test" ".hb" in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)

let record_gen =
  let open QCheck.Gen in
  let finite_pos = map (fun f -> Float.abs f) (float_bound_exclusive 1e6) in
  let small = int_bound 10_000 in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let* pid = int_range 1 1_000_000 in
  let* shard =
    oneof
      [ return None;
        map (fun (k, n) -> Some (Printf.sprintf "%d/%d" k n))
          (pair (int_range 1 9) (int_range 1 9)) ]
  in
  let* seq = small in
  let* t = finite_pos in
  let* interval_s = map (fun f -> 0.01 +. f) finite_pos in
  let* final = bool in
  let* label = name in
  let* jobs_done = small in
  let* jobs_total = small in
  let* cached = small in
  let* errors = small in
  let* rate = finite_pos in
  let* eta_s = option finite_pos in
  let* retried = small in
  let* quarantined = small in
  let* respawns = small in
  let* minor_words = finite_pos in
  let* minor_collections = small in
  let* major_collections = small in
  let* counters = list_size (int_bound 4) (pair name small) in
  return
    { Core.Heartbeat.pid; shard; seq; t; interval_s; final; label; jobs_done;
      jobs_total; cached; errors; rate; eta_s; retried; quarantined; respawns;
      minor_words; minor_collections; major_collections; counters }

let prop_record_round_trip =
  QCheck.Test.make ~name:"Heartbeat: of_json (to_json r) = Ok r" ~count:300
    (QCheck.make record_gen)
    (fun r ->
      (* The codec also survives the actual printer/parser pair. *)
      let line = Core.Json.to_string (Core.Codec.encode Core.Heartbeat.record r) in
      match Core.Json.of_string line with
      | Error _ -> false
      | Ok j -> Core.Codec.decode Core.Heartbeat.record j = Ok r)

let base_record =
  { Core.Heartbeat.pid = 101; shard = Some "1/2"; seq = 2; t = 0.0;
    interval_s = 1.0; final = false; label = "campaign"; jobs_done = 3;
    jobs_total = 5; cached = 1; errors = 2; rate = 0.0; eta_s = None;
    retried = 1; quarantined = 0; respawns = 0; minor_words = 0.0;
    minor_collections = 0; major_collections = 0;
    counters = [ ("exec.jobs", 3) ] }

let test_of_json_rejects_foreign () =
  let bad j =
    match Core.Codec.decode Core.Heartbeat.record j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "decoded a non-heartbeat record"
  in
  bad (Core.Json.Assoc [ ("rec", Core.Json.String "job") ]);
  bad (Core.Json.Assoc [ ("pid", Core.Json.Int 1) ]);
  bad
    (Core.Json.Assoc
       [ ("rec", Core.Json.String "hb"); ("pid", Core.Json.String "x") ])

let test_stream_round_trip () =
  let path = tmp_hb () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "missing stream is empty" true
        (Core.Heartbeat.load path = []);
      let r2 = { base_record with Core.Heartbeat.seq = 3; jobs_done = 4 } in
      Core.Heartbeat.append ~path base_record;
      Core.Heartbeat.append ~path r2;
      (* A torn line (killed mid-write) and foreign junk are skipped. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"rec\":\"hb\",\"pid\":9";
      close_out oc;
      Alcotest.(check bool) "both records load, oldest first" true
        (Core.Heartbeat.load path = [ base_record; r2 ]);
      Alcotest.(check bool) "latest is the newest record" true
        (Core.Heartbeat.latest path = Some r2))

(* A worker respawned onto a stream its predecessor's crash cut short:
   whatever byte the cut fell on, the new beat must survive whole, and
   the reload keeps exactly the beats written wholly before the cut. *)
let prop_cut_anywhere =
  QCheck.Test.make ~name:"stream: cut anywhere, append, reload" ~count:200
    QCheck.(
      make
        Gen.(triple (list_size (int_range 1 6) record_gen) record_gen
               (int_bound 1_000_000)))
    (fun (rs, extra, cut) ->
      let path = tmp_hb () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let expect =
            Test_util.cut_and_append ~path
              ~append:(Core.Heartbeat.append ~path)
              ~to_json:(Core.Codec.encode Core.Heartbeat.record) rs extra cut
          in
          Core.Heartbeat.load path = expect
          && Core.Heartbeat.latest path = Some extra))

(* [latest] reads the stream backwards; whatever junk, window-straddling
   long lines or torn tail a stream ends with, it must agree with the
   forward reader. *)
let prop_latest_is_last_of_load =
  let open QCheck.Gen in
  let junk =
    let* len = oneof [ int_bound 60; int_range 3000 9000 ] in
    oneof
      [ string_size ~gen:(char_range ' ' '~') (return len);
        return {|{"rec":"job","index":0}|} ]
  in
  let line =
    oneof
      [ map (fun r -> Core.Json.to_string (Core.Codec.encode Core.Heartbeat.record r)) record_gen;
        junk ]
  in
  let torn =
    option
      (let* r = record_gen in
       let s = Core.Json.to_string (Core.Codec.encode Core.Heartbeat.record r) in
       let* cut = int_bound (String.length s) in
       return (String.sub s 0 cut))
  in
  QCheck.Test.make ~name:"Heartbeat: latest = last of load" ~count:200
    (QCheck.make (pair (list_size (int_bound 30) line) torn))
    (fun (lines, torn) ->
      let path = tmp_hb () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              List.iter (fun l -> output_string oc (l ^ "\n")) lines;
              Option.iter (output_string oc) torn);
          Core.Heartbeat.latest path
          = List.nth_opt (List.rev (Core.Heartbeat.load path)) 0))

(* ------------------------------------------------------------------ *)
(* Staleness                                                            *)

let test_classify_boundaries () =
  let r = { base_record with Core.Heartbeat.t = 100.0; interval_s = 1.0 } in
  let check name now expect =
    Alcotest.(check string) name
      (Core.Heartbeat.liveness_name expect)
      (Core.Heartbeat.liveness_name (Core.Heartbeat.classify ~now r))
  in
  check "fresh beat is running" 100.1 Core.Heartbeat.Running;
  check "within 1.5 intervals is running" 101.4 Core.Heartbeat.Running;
  check "past 1.5 intervals is stale" 101.7 Core.Heartbeat.Stale;
  (* The promise `gpuwmm status` makes: dead within 2 heartbeat
     intervals of the last beat. *)
  check "at 2 intervals is dead" 102.0 Core.Heartbeat.Dead;
  check "long quiet is dead" 200.0 Core.Heartbeat.Dead;
  let final = { r with Core.Heartbeat.final = true } in
  Alcotest.(check string) "a final beat never ages into dead" "done"
    (Core.Heartbeat.liveness_name (Core.Heartbeat.classify ~now:1e9 final))

let test_eta_cold_start () =
  (* No ETA from a single completion: the first inter-tick sample
     extrapolates a campaign from one job. *)
  Alcotest.(check bool) "no live completions, no ETA" true
    (Core.Exec.eta_of ~live_done:0 ~remaining:10 ~ewma:2.0 = None);
  Alcotest.(check bool) "one live completion, no ETA" true
    (Core.Exec.eta_of ~live_done:1 ~remaining:10 ~ewma:2.0 = None);
  Alcotest.(check bool) "cold EWMA, no ETA" true
    (Core.Exec.eta_of ~live_done:5 ~remaining:10 ~ewma:0.0 = None);
  Alcotest.(check (option (float 1e-9))) "warm: remaining / rate"
    (Some 5.0)
    (Core.Exec.eta_of ~live_done:2 ~remaining:10 ~ewma:2.0)

(* ------------------------------------------------------------------ *)
(* The emitter                                                          *)

(* A short interval beats several times; a 30 s one is stopped right
   after its first beat, and stop must still return at once (it wakes
   the emitter rather than waiting out its sleep) with a final beat. *)
let emitter_case ~interval_s ~min_beats path =
  let e = Core.Heartbeat.start ~interval_s ~shard:"1/4" ~path () in
  if interval_s < 1.0 then Unix.sleepf 0.18
  else begin
    let give_up = Unix.gettimeofday () +. 10.0 in
    while Core.Heartbeat.load path = [] && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.005
    done
  end;
  let t0 = Unix.gettimeofday () in
  Core.Heartbeat.stop e;
  let stop_s = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returns at once (%.3f s)" stop_s)
    true (stop_s < 0.5);
  let beats = Core.Heartbeat.load path in
  Alcotest.(check bool) "several beats landed" true
    (List.length beats >= min_beats);
  let last = List.nth beats (List.length beats - 1) in
  Alcotest.(check bool) "stream ends with a final beat" true
    last.Core.Heartbeat.final;
  Alcotest.(check int) "beats carry this process's pid"
    (Unix.getpid ()) last.Core.Heartbeat.pid;
  Alcotest.(check (option string)) "beats carry the shard spec"
    (Some "1/4") last.Core.Heartbeat.shard;
  List.iteri
    (fun i b -> Alcotest.(check int) "seq is dense" i b.Core.Heartbeat.seq)
    beats

let test_emitter_beats_and_finalises () =
  List.iter
    (fun (interval_s, min_beats) ->
      let path = tmp_hb () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () -> emitter_case ~interval_s ~min_beats path))
    [ (0.05, 3); (30.0, 2) ]

(* ------------------------------------------------------------------ *)
(* Fleet aggregation                                                    *)

(* Two shard workers and the driving parent.  The invariant the CI
   endpoint check relies on: fleet totals are the sum of the shard
   workers alone — the driver's full-plan replay view is display-only. *)
let write_fleet dir =
  let w path r =
    let p = Filename.concat dir path in
    Core.Heartbeat.append ~path:p r;
    p
  in
  let shard1 =
    w "a.jsonl.hb"
      { base_record with Core.Heartbeat.pid = 101; shard = Some "1/2";
        jobs_done = 3; jobs_total = 5; cached = 1; errors = 2 }
  in
  let shard2 =
    w "b.jsonl.hb"
      { base_record with Core.Heartbeat.pid = 102; shard = Some "2/2";
        seq = 4; final = true; jobs_done = 5; jobs_total = 5; cached = 0;
        errors = 1; retried = 0 }
  in
  let driver =
    w "c.jsonl.hb"
      { base_record with Core.Heartbeat.pid = 100; shard = None;
        jobs_done = 9; jobs_total = 10; cached = 8; errors = 3; retried = 0 }
  in
  [ shard1; shard2; driver ]

let with_fleet f =
  let dir = Filename.temp_file "gpuwmm-fleet" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f (write_fleet dir))

let test_fleet_sums_shards () =
  with_fleet (fun paths ->
      let fleet = Core.Fleetview.load ~now:0.0 paths in
      Alcotest.(check int) "three workers" 3
        (List.length fleet.Core.Fleetview.workers);
      (* 3 + 5 from the shards; the driver's 9/10 replay view does not
         double-count. *)
      Alcotest.(check int) "done sums shard workers" 8
        fleet.Core.Fleetview.f_done;
      Alcotest.(check int) "total sums shard workers" 10
        fleet.Core.Fleetview.f_total;
      Alcotest.(check int) "errors sum shard workers" 3
        fleet.Core.Fleetview.f_errors;
      Alcotest.(check int) "retried sums shard workers" 1
        fleet.Core.Fleetview.f_retried;
      Alcotest.(check int) "one finished worker" 1
        fleet.Core.Fleetview.f_finished;
      Alcotest.(check int) "no dead workers at now = t" 0
        fleet.Core.Fleetview.f_dead;
      (* Shard workers sort first, by k; the driver trails. *)
      Alcotest.(check (list (option string))) "row order"
        [ Some "1/2"; Some "2/2"; None ]
        (List.map
           (fun w -> w.Core.Fleetview.w_last.Core.Heartbeat.shard)
           fleet.Core.Fleetview.workers))

let test_fleet_driver_only () =
  (* An unsharded campaign: the single driver row IS the fleet. *)
  let path = tmp_hb () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Core.Heartbeat.append ~path
        { base_record with Core.Heartbeat.shard = None; jobs_done = 4;
          jobs_total = 9 };
      let fleet = Core.Fleetview.load ~now:0.0 [ path ] in
      Alcotest.(check int) "driver counts when no shards" 4
        fleet.Core.Fleetview.f_done;
      Alcotest.(check int) "driver total" 9 fleet.Core.Fleetview.f_total)

let test_fleet_flags_dead () =
  with_fleet (fun paths ->
      (* Two intervals after the last beat of the non-final shards. *)
      let fleet = Core.Fleetview.load ~now:2.0 paths in
      Alcotest.(check int) "quiet workers classified dead" 2
        fleet.Core.Fleetview.f_dead;
      Alcotest.(check int) "the final-beat worker stays done" 1
        fleet.Core.Fleetview.f_finished;
      Alcotest.(check bool) "summary line flags the deaths" true
        (let line = Core.Fleetview.summary_line fleet in
         let re = "DEAD" in
         let n = String.length line and m = String.length re in
         let rec find i =
           i + m <= n && (String.sub line i m = re || find (i + 1))
         in
         find 0))

let test_status_golden () =
  with_fleet (fun paths ->
      let fleet = Core.Fleetview.load ~now:0.0 paths in
      Alcotest.(check string) "golden/status.json"
        (read_file "golden/status.json")
        (Core.Json.to_string (Core.Fleetview.render_json fleet) ^ "\n"))

(* ------------------------------------------------------------------ *)
(* The HTTP endpoint server                                             *)

let test_httpd_serves_and_stops () =
  let hits = Atomic.make 0 in
  let server =
    Core.Httpd.start_routes ~port:0 (fun { Core.Httpd.path; _ } ->
        Atomic.incr hits;
        match path with
        | "/ok" -> Core.Httpd.respond "hello\n"
        | "/json" ->
          Core.Httpd.respond ~content_type:"application/json" "{}\n"
        | "/boom" -> failwith "handler exploded"
        | _ -> Core.Httpd.respond ~status:404 "not found\n")
  in
  Fun.protect
    ~finally:(fun () -> Core.Httpd.stop server)
    (fun () ->
      let port = Core.Httpd.port server in
      let got path =
        match Core.Httpd.fetch ~port path with
        | Ok r -> r
        | Error fe -> Alcotest.fail (Core.Httpd.fetch_error_message fe)
      in
      Alcotest.(check bool) "picked a real port" true (port > 0);
      Alcotest.(check (pair int string)) "200 with body" (200, "hello\n")
        (got "/ok");
      Alcotest.(check int) "404 for unknown paths" 404 (fst (got "/nope"));
      Alcotest.(check int) "handler exceptions become 500" 500
        (fst (got "/boom"));
      Alcotest.(check int) "query strings are stripped" 200
        (fst (got "/ok?x=1"));
      Alcotest.(check bool) "every request reached the handler" true
        (Atomic.get hits >= 4));
  (* After stop the port refuses connections — surfaced as the typed
     Refused error, never a raw Unix_error. *)
  match Core.Httpd.fetch ~port:(Core.Httpd.port server) "/ok" with
  | Error Core.Httpd.Refused -> ()
  | Error _ -> ()
  | Ok (status, _) ->
    (* A new process may have grabbed the port; only a served 200
       "hello" would prove the server survived stop. *)
    Alcotest.(check bool) "stopped server no longer answers" false
      (status = 200)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition and stamped exports                            *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec find i = i + m <= n && (String.sub hay i m = needle || find (i + 1)) in
  find 0

let test_prometheus_exposition () =
  Core.Telemetry.reset ();
  let c = Core.Telemetry.counter "test.prom" in
  Core.Telemetry.add c 3;
  let h = Core.Telemetry.histogram "test.lat" in
  Core.Telemetry.observe h 0.5;
  let text = Core.Telemetry.prometheus (Core.Telemetry.snapshot ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true
        (contains text needle))
    [ "# TYPE gpuwmm_test_prom counter"; "gpuwmm_test_prom 3";
      "# TYPE gpuwmm_test_lat_seconds histogram";
      "gpuwmm_test_lat_seconds_bucket{le=\"1\"} 1";
      "gpuwmm_test_lat_seconds_bucket{le=\"+Inf\"} 1";
      "gpuwmm_test_lat_seconds_sum 0.5"; "gpuwmm_test_lat_seconds_count 1" ]

let test_fleet_prometheus () =
  with_fleet (fun paths ->
      let text =
        Core.Fleetview.prometheus (Core.Fleetview.load ~now:0.0 paths)
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("fleet gauges contain " ^ needle) true
            (contains text needle))
        [ "gpuwmm_fleet_jobs_done 8"; "gpuwmm_fleet_jobs_total 10";
          "gpuwmm_fleet_workers{state=\"running\"} 2";
          "gpuwmm_fleet_workers{state=\"done\"} 1";
          "gpuwmm_shard_jobs_done{shard=\"1/2\"} 3";
          "gpuwmm_shard_jobs_done{shard=\"2/2\"} 5";
          "gpuwmm_shard_jobs_total{shard=\"1/2\"} 5";
          "gpuwmm_shard_jobs_total{shard=\"2/2\"} 5" ])

let sample_record =
  { Gpusim.Trace.tick = 5;
    event = Gpusim.Trace.Access { tid = 1; addr = 7; write = true; atomic = false } }

let test_stamped_exports () =
  let text = Core.Telemetry.jsonl ~pid:7 ~shard:"1/2" [ sample_record ] in
  Alcotest.(check bool) "jsonl lines carry the stamp" true
    (contains text "\"pid\":7" && contains text "\"shard\":\"1/2\"");
  (* Stamps are transparent to the decoder: the round-trip still holds. *)
  (match Core.Jsonl.parse Core.Telemetry.record_of_json text with
  | Ok ([ r ], false) ->
    Alcotest.(check bool) "stamped record round-trips" true (r = sample_record)
  | _ -> Alcotest.fail "stamped jsonl failed to parse");
  let spans =
    [ { Core.Telemetry.label = "campaign"; index = 0; worker = 0;
        queued_at = 100.0; started_at = 100.5; ended_at = 101.0 } ]
  in
  let doc =
    Core.Json.to_string
      (Core.Telemetry.chrome_trace ~pid:9 ~shard:"2/4" ~span_base:0.0 ~spans
         [ sample_record ])
  in
  Alcotest.(check bool) "process_name metadata labels the track" true
    (contains doc "\"process_name\"" && contains doc "gpuwmm pid 9 shard 2/4");
  Alcotest.(check bool) "span timestamps stay absolute under span_base 0" true
    (contains doc "\"ts\":100500000");
  Alcotest.(check bool) "events ride the real pid" true
    (contains doc "\"pid\":9")

let () =
  Alcotest.run "heartbeat"
    [ ( "codec",
        [ QCheck_alcotest.to_alcotest prop_record_round_trip;
          Alcotest.test_case "rejects foreign records" `Quick
            test_of_json_rejects_foreign;
          QCheck_alcotest.to_alcotest prop_latest_is_last_of_load;
          QCheck_alcotest.to_alcotest prop_cut_anywhere;
          Alcotest.test_case "stream round-trip, torn tail" `Quick
            test_stream_round_trip ] );
      ( "staleness",
        [ Alcotest.test_case "classification boundaries" `Quick
            test_classify_boundaries;
          Alcotest.test_case "eta cold start" `Quick test_eta_cold_start ] );
      ( "emitter",
        [ Alcotest.test_case "beats and finalises" `Quick
            test_emitter_beats_and_finalises ] );
      ( "fleet",
        [ Alcotest.test_case "totals sum the shard workers" `Quick
            test_fleet_sums_shards;
          Alcotest.test_case "driver-only fleet" `Quick test_fleet_driver_only;
          Alcotest.test_case "dead workers flagged" `Quick
            test_fleet_flags_dead;
          Alcotest.test_case "status golden" `Quick test_status_golden ] );
      ( "httpd",
        [ Alcotest.test_case "serves and stops" `Quick
            test_httpd_serves_and_stops ] );
      ( "exposition",
        [ Alcotest.test_case "prometheus text" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "fleet gauges" `Quick test_fleet_prometheus;
          Alcotest.test_case "stamped exports" `Quick test_stamped_exports ]
      ) ]
