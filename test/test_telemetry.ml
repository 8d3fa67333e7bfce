(* The observability back half: the JSON codec round-trip, both trace
   exporters (Chrome trace-event and JSONL), the Chrome trace merge,
   and the metrics registry
   (counters/histograms aggregated across domains, spans from the
   execution engine). *)

(* ------------------------------------------------------------------ *)
(* Json codec                                                           *)

(* Strings of any bytes, weighted towards the ones the printer escapes
   or passes through raw. *)
let json_string_gen =
  let open QCheck.Gen in
  oneof
    [ string_printable;
      string;
      string_of (oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\000'; '\031'; '\127';
                          '\195'; '\169'; '\255'; 'a' ]) ]

(* Floats that the short form does not round-trip need 17 digits; the
   sign of zero must survive too. *)
let json_float_gen =
  let open QCheck.Gen in
  oneof
    [ map (fun f -> if Float.is_finite f then f else 0.0) float;
      map (fun i -> float_of_int i /. 3.0) small_signed_int;
      map (fun i -> float_of_int i *. 0.1) small_signed_int;
      return (-0.0) ]

let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Core.Json.Null;
               map (fun b -> Core.Json.Bool b) bool;
               map (fun i -> Core.Json.Int i) int;
               map (fun f -> Core.Json.Float f) json_float_gen;
               map (fun s -> Core.Json.String s) json_string_gen ]
         in
         if n = 0 then leaf
         else
           frequency
             [ (3, leaf);
               ( 1,
                 map
                   (fun l -> Core.Json.List l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Core.Json.Assoc kvs)
                   (list_size (int_bound 4)
                      (pair json_string_gen (self (n / 2)))) ) ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"Json: of_string (to_string v) = Ok v" ~count:500
    (QCheck.make json_gen)
    (fun v ->
      (* [=] equates 0.0 and -0.0, so the bytes are compared too. *)
      let text = Core.Json.to_string v in
      match Core.Json.of_string text with
      | Ok v' -> v' = v && Core.Json.to_string v' = text
      | Error _ -> false)

let test_json_parsing_cases () =
  let ok s v = Alcotest.(check bool) s true (Core.Json.of_string s = Ok v) in
  ok "17" (Core.Json.Int 17);
  ok "-4" (Core.Json.Int (-4));
  ok "2.5" (Core.Json.Float 2.5);
  ok "1e3" (Core.Json.Float 1000.0);
  ok "true" (Core.Json.Bool true);
  ok "null" Core.Json.Null;
  ok "[]" (Core.Json.List []);
  ok "{}" (Core.Json.Assoc []);
  ok " [ 1 , \"a\" ] " (Core.Json.List [ Core.Json.Int 1; Core.Json.String "a" ]);
  ok "\"a\\u0041\\n\"" (Core.Json.String "aA\n");
  (* surrogate pair: U+1F600 *)
  ok "\"\\uD83D\\uDE00\"" (Core.Json.String "\xF0\x9F\x98\x80");
  (* out of int range: a float *)
  ok "99999999999999999999" (Core.Json.Float 1e20);
  (* Each malformed input's exact error text, which callers print. *)
  List.iter
    (fun (input, error) ->
      Alcotest.(check string) ("reject " ^ String.escaped input) error
        (match Core.Json.of_string input with
        | Error e -> e
        | Ok v -> "Ok " ^ Core.Json.to_string v))
    [ ("", "at 0: unexpected end of input");
      ("  ", "at 2: unexpected end of input");
      ("tru", "at 0: expected true");
      ("nul", "at 0: expected null");
      ("[\"a\",nul]", "at 5: expected null");
      ("[1,]", "at 3: unexpected character ]");
      ("[1,", "at 3: unexpected end of input");
      ("[1", "at 2: expected ], found end of input");
      ("[1 2]", "at 3: expected ], found 2");
      ("{\"a\":1,}", "at 7: expected \", found }");
      ("{\"a\":}", "at 5: unexpected character }");
      ("{\"a\" 1}", "at 5: expected :, found 1");
      ("{\"a\":1 \"b\":2}", "at 7: expected }, found \"");
      ("{1:2}", "at 1: expected \", found 1");
      ("{\"a\":1}x", "at 7: trailing garbage");
      ("1 2", "at 2: trailing garbage");
      ("01x", "at 2: trailing garbage");
      ("\"\\ud800\"", "at 7: expected \\, found \"");
      ("\"\\uD83D\"", "at 7: expected \\, found \"");
      ("\"\\uDE00\"", "at 7: unpaired surrogate");
      ("\"\\uD83Dx\"", "at 7: expected \\, found x");
      ("\"\\uD83D\\u0041\"", "at 13: unpaired surrogate");
      ("\"\\u12\"", "at 5: bad \\u escape");
      ("\"\\u12G4\"", "at 5: bad \\u escape");
      ("\"\\q\"", "at 2: bad escape \\q");
      ("\"\\", "at 2: truncated escape");
      ("\"unterminated", "at 13: unterminated string");
      ("\"a\tb\"", "at 2: raw control character");
      ("\"a\nb\"", "at 2: raw control character");
      ("-", "at 0: bad number -");
      ("1.2.3", "at 0: bad number 1.2.3");
      ("1e", "at 0: bad number 1e");
      ("+1", "at 0: unexpected character +");
      ("]", "at 0: unexpected character ]");
      ("@", "at 0: unexpected character @") ]

(* Each float's exact bytes: ledgers are compared byte for byte. *)
let test_json_float_bytes () =
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) text
        (Core.Json.to_string (Core.Json.Float f)))
    [ (0.0, "0.0");
      (-0.0, "-0.0");
      (0.1, "0.1");
      (1.0 /. 3.0, "0.33333333333333331");
      (0.1 +. 0.2, "0.30000000000000004");
      (1e300, "1e+300");
      (123456789012.5, "123456789012.5");
      (2.0 ** 53.0, "9007199254740992.0");
      (-1.5, "-1.5");
      (100.0, "100.0");
      (1e21, "1e+21");
      (5e-324, "4.94065645841e-324");
      (Float.nan, "null");
      (Float.infinity, "null") ]

let test_json_accessors () =
  let j =
    Core.Json.Assoc
      [ ("a", Core.Json.Int 1); ("b", Core.Json.String "x");
        ("c", Core.Json.List [ Core.Json.Bool true ]) ]
  in
  Alcotest.(check (option int)) "member+to_int" (Some 1)
    (Option.bind (Core.Json.member "a" j) Core.Json.to_int);
  Alcotest.(check (option string)) "member+to_str" (Some "x")
    (Option.bind (Core.Json.member "b" j) Core.Json.to_str);
  Alcotest.(check bool) "missing member" true (Core.Json.member "z" j = None);
  Alcotest.(check (option (float 0.0))) "to_float promotes ints" (Some 1.0)
    (Core.Json.to_float (Core.Json.Int 1))

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

(* One record per event constructor, so the export's coverage is total. *)
let all_event_records =
  let open Gpusim.Trace in
  List.mapi
    (fun i event -> { tick = 10 * i; event })
    [ Launch_begin
        { kernel = "k\"1"; grid = 4; block = 64; stress_blocks = 2;
          stress_threads = 128 };
      Access { tid = 1; addr = 7; write = true; atomic = false };
      Issue { tid = 1; addr = 7; part = 3; is_store = true };
      Commit { tid = 1; addr = 7; is_store = true; value = 9; reordered = true };
      Reorder { tid = 1; overtaken = 7; committed = 8 };
      Atomic_rmw { tid = 2; addr = 5; before = 0; after = 1 };
      Fence { tid = 2; pending = 3; device_scope = true };
      Barrier_wait { tid = 3; block = 0 };
      Barrier_release { block = 0; by_exit = false };
      Thread_done { tid = 3; daemon = true };
      Contention { part = 1; read = 0.25; write = 1.5 };
      Bitflip { tid = 4; addr = 11; bit = 3; before = 9; after = 1 };
      Launch_end
        { outcome = "finished"; divergence = false;
          metrics = [ ("ticks", 123); ("reorder", 4) ] } ]

(* The export is write-only, so its bytes are the contract: every field
   of every record, and a stamp that only prepends its fields. *)
let test_jsonl_bytes () =
  Alcotest.(check string) "unstamped"
    {|{"tick":0,"ev":"launch_begin","kernel":"k\"1","grid":4,"block":64,"stress_blocks":2,"stress_threads":128}
{"tick":10,"ev":"access","tid":1,"addr":7,"write":true,"atomic":false}
{"tick":20,"ev":"issue","tid":1,"addr":7,"part":3,"is_store":true}
{"tick":30,"ev":"commit","tid":1,"addr":7,"is_store":true,"value":9,"reordered":true}
{"tick":40,"ev":"reorder","tid":1,"overtaken":7,"committed":8}
{"tick":50,"ev":"atomic_rmw","tid":2,"addr":5,"before":0,"after":1}
{"tick":60,"ev":"fence","tid":2,"pending":3,"device_scope":true}
{"tick":70,"ev":"barrier_wait","tid":3,"block":0}
{"tick":80,"ev":"barrier_release","block":0,"by_exit":false}
{"tick":90,"ev":"thread_done","tid":3,"daemon":true}
{"tick":100,"ev":"contention","part":1,"read":0.25,"write":1.5}
{"tick":110,"ev":"bitflip","tid":4,"addr":11,"bit":3,"before":9,"after":1}
{"tick":120,"ev":"launch_end","outcome":"finished","divergence":false,"metrics":{"ticks":123,"reorder":4}}
|}
    (Core.Telemetry.jsonl all_event_records);
  Alcotest.(check string) "stamped"
    {|{"pid":7,"shard":"1/2","tick":0,"ev":"launch_begin","kernel":"k\"1","grid":4,"block":64,"stress_blocks":2,"stress_threads":128}
{"pid":7,"shard":"1/2","tick":10,"ev":"access","tid":1,"addr":7,"write":true,"atomic":false}
{"pid":7,"shard":"1/2","tick":20,"ev":"issue","tid":1,"addr":7,"part":3,"is_store":true}
{"pid":7,"shard":"1/2","tick":30,"ev":"commit","tid":1,"addr":7,"is_store":true,"value":9,"reordered":true}
{"pid":7,"shard":"1/2","tick":40,"ev":"reorder","tid":1,"overtaken":7,"committed":8}
{"pid":7,"shard":"1/2","tick":50,"ev":"atomic_rmw","tid":2,"addr":5,"before":0,"after":1}
{"pid":7,"shard":"1/2","tick":60,"ev":"fence","tid":2,"pending":3,"device_scope":true}
{"pid":7,"shard":"1/2","tick":70,"ev":"barrier_wait","tid":3,"block":0}
{"pid":7,"shard":"1/2","tick":80,"ev":"barrier_release","block":0,"by_exit":false}
{"pid":7,"shard":"1/2","tick":90,"ev":"thread_done","tid":3,"daemon":true}
{"pid":7,"shard":"1/2","tick":100,"ev":"contention","part":1,"read":0.25,"write":1.5}
{"pid":7,"shard":"1/2","tick":110,"ev":"bitflip","tid":4,"addr":11,"bit":3,"before":9,"after":1}
{"pid":7,"shard":"1/2","tick":120,"ev":"launch_end","outcome":"finished","divergence":false,"metrics":{"ticks":123,"reorder":4}}
|}
    (Core.Telemetry.jsonl ~pid:7 ~shard:"1/2" all_event_records)

let sample_spans =
  [ { Core.Telemetry.label = "tune"; index = 0; worker = 0; queued_at = 100.0;
      started_at = 100.5; ended_at = 101.0 };
    { Core.Telemetry.label = "tune"; index = 1; worker = 1; queued_at = 100.0;
      started_at = 100.25; ended_at = 102.0 } ]

let test_chrome_trace_golden () =
  let doc =
    Core.Telemetry.chrome_trace ~spans:sample_spans all_event_records
  in
  (* The export must itself survive our parser: valid JSON end to end. *)
  let reparsed =
    match Core.Json.of_string (Core.Json.to_string doc) with
    | Ok v -> v
    | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  in
  let events =
    match
      Option.bind (Core.Json.member "traceEvents" reparsed) Core.Json.to_list
    with
    | Some l -> l
    | None -> Alcotest.fail "missing traceEvents array"
  in
  Alcotest.(check int) "every record and span becomes an event"
    (List.length all_event_records + List.length sample_spans)
    (List.length events);
  let get name j =
    match Core.Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "event missing %s field" name
  in
  let phases = Hashtbl.create 4 in
  let last_ts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let name = Option.get (Core.Json.to_str (get "name" e)) in
      Alcotest.(check bool) "name nonempty" true (name <> "");
      let ph = Option.get (Core.Json.to_str (get "ph" e)) in
      Alcotest.(check bool) ("known phase " ^ ph) true
        (List.mem ph [ "i"; "C"; "X" ]);
      Hashtbl.replace phases ph ();
      let ts = Option.get (Core.Json.to_int (get "ts" e)) in
      let pid = Option.get (Core.Json.to_int (get "pid" e)) in
      let tid = Option.get (Core.Json.to_int (get "tid" e)) in
      Alcotest.(check bool) "pid 0 = simulator, pid 1 = exec engine" true
        (pid = 0 || pid = 1);
      (* Timestamps must be monotone within each (pid, tid) track. *)
      let prev =
        Option.value ~default:min_int (Hashtbl.find_opt last_ts (pid, tid))
      in
      Alcotest.(check bool)
        (Printf.sprintf "ts monotone on track (%d,%d)" pid tid)
        true (ts >= prev);
      Hashtbl.replace last_ts (pid, tid) ts)
    events;
  List.iter
    (fun ph ->
      Alcotest.(check bool) ("emitted a ph=" ^ ph ^ " event") true
        (Hashtbl.mem phases ph))
    [ "i"; "C"; "X" ];
  (* Spans carry their schedule: dur = run time, queue wait in args. *)
  let span_events =
    List.filter
      (fun e ->
        Core.Json.member "ph" e = Some (Core.Json.String "X"))
      events
  in
  List.iter
    (fun e ->
      let dur = Option.get (Core.Json.to_int (get "dur" e)) in
      Alcotest.(check bool) "positive duration" true (dur > 0);
      let wait =
        Option.get
          (Core.Json.to_int (get "queue_wait_us" (get "args" e)))
      in
      Alcotest.(check bool) "non-negative queue wait" true (wait >= 0))
    span_events

(* [trace --merge]'s output is the contract: the merged bytes of a span
   sidecar as a campaign process writes it, alone and with a foreign
   file that has float ts and a metadata event. *)
let test_chrome_merge_bytes () =
  let sidecar =
    Core.Telemetry.chrome_trace ~pid:7 ~shard:"1/2" ~span_base:0.0
      ~spans:sample_spans []
  in
  let foreign =
    match
      Core.Json.of_string
        {|{"traceEvents":[{"name":"y","ph":"i","s":"t","ts":100300000.25,"pid":9,"tid":1},{"name":"thread_name","ph":"M","pid":9,"tid":1,"args":{"name":"foreign"}},{"name":"x","ph":"X","ts":100000000.5,"dur":12.5,"pid":9,"tid":1}]}|}
    with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let merge docs =
    Core.Json.to_string
      (Core.Telemetry.merge_chrome
         (List.concat_map
            (fun d -> Result.get_ok (Core.Telemetry.chrome_events d))
            docs))
  in
  Alcotest.(check string) "sidecar alone"
    {|{"traceEvents":[{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"gpuwmm pid 7 shard 1/2"}},{"name":"tune","ph":"X","ts":0,"dur":1750000,"pid":7,"tid":1,"args":{"index":1,"queue_wait_us":250000}},{"name":"tune","ph":"X","ts":250000,"dur":500000,"pid":7,"tid":0,"args":{"index":0,"queue_wait_us":500000}}]}|}
    (merge [ sidecar ]);
  Alcotest.(check string) "sidecar and foreign file"
    {|{"traceEvents":[{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"gpuwmm pid 7 shard 1/2"}},{"name":"thread_name","ph":"M","pid":9,"tid":1,"args":{"name":"foreign"}},{"name":"x","ph":"X","ts":0.0,"dur":12.5,"pid":9,"tid":1},{"name":"tune","ph":"X","ts":249999.5,"dur":1750000,"pid":7,"tid":1,"args":{"index":1,"queue_wait_us":250000}},{"name":"y","ph":"i","s":"t","ts":299999.75,"pid":9,"tid":1},{"name":"tune","ph":"X","ts":499999.5,"dur":500000,"pid":7,"tid":0,"args":{"index":0,"queue_wait_us":500000}}]}|}
    (merge [ sidecar; foreign ]);
  Alcotest.(check (result reject string)) "no traceEvents array"
    (Error "not a Chrome trace-event file (no traceEvents array)")
    (Result.map (fun _ -> ()) (Core.Telemetry.chrome_events (Core.Json.Assoc [])))

(* ------------------------------------------------------------------ *)
(* Registry: counters, histograms, spans                                *)

let test_counters_across_domains () =
  let c = Core.Telemetry.counter "test.domains" in
  let before = Core.Telemetry.counter_value c in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let c' = Core.Telemetry.counter "test.domains" in
            for _ = 1 to 10_000 do
              Core.Telemetry.incr c'
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (before + 40_000)
    (Core.Telemetry.counter_value c);
  Core.Telemetry.add c 2;
  Alcotest.(check int) "add" (before + 40_002) (Core.Telemetry.counter_value c);
  Alcotest.(check bool) "same name, same counter" true
    (Core.Telemetry.counter "test.domains" == c)

let test_histogram_and_snapshot () =
  Core.Telemetry.reset ();
  let h = Core.Telemetry.histogram "test.hist_seconds" in
  List.iter (Core.Telemetry.observe h) [ 0.5e-6; 3e-4; 3e-4; 2.0; -1.0 ];
  let s = Core.Telemetry.snapshot () in
  let hs = List.assoc "test.hist_seconds" s.Core.Telemetry.histograms in
  Alcotest.(check int) "count" 5 hs.Core.Telemetry.count;
  Alcotest.(check (float 1e-9)) "sum (negatives clamp to 0)" 2.0006005
    hs.Core.Telemetry.sum;
  (* Buckets are cumulative: all samples fall below the top bound. *)
  let _, top = List.nth hs.Core.Telemetry.buckets
      (List.length hs.Core.Telemetry.buckets - 1) in
  Alcotest.(check int) "cumulative top bucket holds everything" 5 top;
  (* The snapshot exports as JSON that our own parser accepts. *)
  let j = Core.Telemetry.snapshot_to_json s in
  (match Core.Json.of_string (Core.Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot JSON invalid: %s" e);
  Core.Telemetry.reset ();
  let s2 = Core.Telemetry.snapshot () in
  let hs2 = List.assoc "test.hist_seconds" s2.Core.Telemetry.histograms in
  Alcotest.(check int) "reset zeroes histograms" 0 hs2.Core.Telemetry.count

let test_exec_spans () =
  Core.Telemetry.set_spans true;
  Fun.protect
    ~finally:(fun () -> Core.Telemetry.set_spans false)
    (fun () ->
      let payloads = List.init 20 Fun.id in
      let results =
        Core.Exec.run ~backend:(Core.Exec.Parallel 2) ~label:"spans-test"
          ~seed:3
          ~f:(fun ~seed:_ p -> p * p)
          payloads
      in
      Alcotest.(check (list int)) "results unaffected by span recording"
        (List.map (fun p -> p * p) payloads)
        results;
      let spans = Core.Telemetry.spans () in
      Alcotest.(check int) "one span per job" 20 (List.length spans);
      let indices =
        List.sort compare (List.map (fun s -> s.Core.Telemetry.index) spans)
      in
      Alcotest.(check (list int)) "every job index present" payloads indices;
      List.iter
        (fun s ->
          Alcotest.(check string) "label" "spans-test" s.Core.Telemetry.label;
          Alcotest.(check bool) "worker slot in range" true
            (s.Core.Telemetry.worker >= 0 && s.Core.Telemetry.worker < 2);
          Alcotest.(check bool) "queued <= started <= ended" true
            (s.Core.Telemetry.queued_at <= s.Core.Telemetry.started_at
            && s.Core.Telemetry.started_at <= s.Core.Telemetry.ended_at))
        spans);
  Alcotest.(check bool) "disabled again" false (Core.Telemetry.spans_enabled ());
  Core.Telemetry.clear_spans ();
  Core.Telemetry.record_span (List.hd sample_spans);
  Alcotest.(check bool) "record_span is a no-op when disabled" true
    (Core.Telemetry.spans () = [])

let test_exec_counters_move () =
  Core.Telemetry.reset ();
  ignore
    (Core.Exec.run ~backend:Core.Exec.Serial ~seed:1
       ~f:(fun ~seed:_ p -> p)
       (List.init 7 Fun.id));
  let s = Core.Telemetry.snapshot () in
  Alcotest.(check int) "exec.jobs counts jobs" 7
    (List.assoc "exec.jobs" s.Core.Telemetry.counters);
  let run_h = List.assoc "exec.run_seconds" s.Core.Telemetry.histograms in
  Alcotest.(check int) "run histogram sees each job" 7
    run_h.Core.Telemetry.count;
  Alcotest.(check bool) "every check holds" true
    (Core.Exec.for_all ~backend:Core.Exec.Serial ~seed:1
       ~f:(fun ~seed:_ p -> p >= 0)
       (List.init 7 Fun.id));
  let s = Core.Telemetry.snapshot () in
  Alcotest.(check int) "for_all jobs count in exec.jobs" 14
    (List.assoc "exec.jobs" s.Core.Telemetry.counters)

let () =
  Alcotest.run "telemetry"
    [ ( "json",
        [ QCheck_alcotest.to_alcotest prop_json_round_trip;
          Alcotest.test_case "parser cases" `Quick test_json_parsing_cases;
          Alcotest.test_case "float bytes" `Quick test_json_float_bytes;
          Alcotest.test_case "accessors" `Quick test_json_accessors ] );
      ( "exporters",
        [ Alcotest.test_case "jsonl bytes" `Quick test_jsonl_bytes;
          Alcotest.test_case "chrome trace golden" `Quick
            test_chrome_trace_golden;
          Alcotest.test_case "chrome merge bytes" `Quick
            test_chrome_merge_bytes ] );
      ( "registry",
        [ Alcotest.test_case "counters across domains" `Quick
            test_counters_across_domains;
          Alcotest.test_case "histograms and snapshots" `Quick
            test_histogram_and_snapshot;
          Alcotest.test_case "exec spans" `Quick test_exec_spans;
          Alcotest.test_case "exec counters" `Quick test_exec_counters_move ]
      ) ]
