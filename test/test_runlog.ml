(* The durable JSONL run ledger: parse/load round-trips, torn tails,
   fail-closed seed validation, and the headline guarantee that a
   killed-then-resumed campaign produces a byte-identical ledger and
   identical results for any kill point and any --jobs in {1, 2, 4}. *)

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let temp () = Filename.temp_file "runlog" ".jsonl"

let take n l = List.filteri (fun i _ -> i < n) l

let header ~campaign ~seed =
  { Core.Runlog.schema = Core.Runlog.schema_version;
    campaign; argv = []; seed; jobs = 0; grid = Core.Json.Null;
    git = None; created = 0.0; shard = None; merged = None }

let cache_of path =
  match Core.Runlog.load path with
  | Ok l -> Core.Runlog.cache_of_ledger l
  | Error e -> failwith e

(* Drivers zero their wall-clock result fields (Tuning/Harden elapsed_s)
   only under the deterministic-ledger env var, so the multi-phase resume
   tests flip it for their duration. *)
let with_deterministic_env f =
  Unix.putenv "GPUWMM_LEDGER_DETERMINISTIC" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "GPUWMM_LEDGER_DETERMINISTIC" "0")
    f

(* ------------------------------------------------------------------ *)
(* A small fixed campaign: 2 environments x 2 apps on one chip.        *)

let chip = Gpusim.Chip.k20
let apps = List.filter_map Apps.Registry.by_name [ "cbe-dot"; "sdk-red" ]

let envs _chip =
  let tuned = Core.Tuning.shipped ~chip in
  [ Core.Environment.make Core.Stress.No_stress ~randomise:false;
    Core.Environment.sys_plus ~tuned ]

let runs = 12
let cseed = 11

let run_campaign ?cache ~path ~jobs () =
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (header ~campaign:"test" ~seed:cseed)
  in
  let journal = Core.Runlog.journal ~sink ?cache "" in
  match
    Core.Campaign.run
      ~backend:(Core.Exec.backend_of_jobs jobs)
      ~journal ~chips:[ chip ] ~environments_for:envs ~apps ~runs ~seed:cseed
      ()
  with
  | rows ->
    Core.Runlog.append_result sink ~kind:"campaign"
      (Core.Campaign.rows_to_json rows);
    Core.Runlog.close sink;
    rows
  | exception e ->
    Core.Runlog.abort sink;
    raise e

(* The uninterrupted reference ledger, computed once. *)
let full =
  lazy
    (let path = temp () in
     let rows = run_campaign ~path ~jobs:1 () in
     let text = read_all path in
     Sys.remove path;
     (text, rows))

(* Ledger lines: header, one per job, result, footer, trailing "". *)
let job_count text = List.length (String.split_on_char '\n' text) - 4

(* ------------------------------------------------------------------ *)
(* Load round-trip                                                     *)

let test_load_roundtrip () =
  let full_text, full_rows = Lazy.force full in
  match Core.Runlog.parse full_text with
  | Error e -> Alcotest.fail e
  | Ok l ->
    let h = l.Core.Runlog.header in
    Alcotest.(check int) "schema" Core.Runlog.schema_version
      h.Core.Runlog.schema;
    Alcotest.(check string) "campaign" "test" h.Core.Runlog.campaign;
    Alcotest.(check int) "seed" cseed h.Core.Runlog.seed;
    Alcotest.(check int) "one record per job" 4
      (List.length l.Core.Runlog.jobs);
    Alcotest.(check bool) "not torn" false l.Core.Runlog.torn;
    (match l.Core.Runlog.footer with
    | None -> Alcotest.fail "footer missing"
    | Some f ->
      Alcotest.(check int) "footer job total" 4 f.Core.Runlog.total_jobs;
      Alcotest.(check int) "footer error total"
        (List.fold_left
           (fun acc (j : Core.Runlog.job) -> acc + j.Core.Runlog.errors)
           0 l.Core.Runlog.jobs)
        f.Core.Runlog.total_errors);
    (match l.Core.Runlog.result with
    | Some ("campaign", data) -> (
      match Core.Campaign.rows_of_json data with
      | Error e -> Alcotest.fail e
      | Ok rows ->
        Alcotest.(check bool) "result record round-trips the rows" true
          (rows = full_rows);
        (* report --from must reproduce the live driver's Table 5
           character for character. *)
        Alcotest.(check string) "table5 from ledger = table5 live"
          (Fmt.str "%a" Core.Report.table5 full_rows)
          (Fmt.str "%a" Core.Report.table5 rows))
    | Some (k, _) -> Alcotest.failf "unexpected result kind %S" k
    | None -> Alcotest.fail "result record missing")

(* ------------------------------------------------------------------ *)
(* The committed golden ledger                                          *)

(* golden/campaign-k20.jsonl is what `gpuwmm test --chip k20 --app
   cbe-dot --runs 8 --seed 7 -j 2` writes under
   GPUWMM_LEDGER_DETERMINISTIC.  The same campaign written in-process,
   and the golden loaded and written back, must both match it byte for
   byte. *)
let test_golden_ledger () =
  let golden = read_all "golden/campaign-k20.jsonl" in
  let path = temp () in
  let grid =
    Core.Campaign.test_grid ~chip:"K20" ~env:"sys-str+" ~apps:[ "cbe-dot" ]
      ~runs:8
  in
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      { (header ~campaign:"test" ~seed:7) with grid }
  in
  let env = Option.get (Core.Campaign.environment ~chip "sys-str+") in
  let rows =
    Core.Campaign.run ~backend:(Core.Exec.Parallel 2)
      ~journal:(Core.Runlog.journal ~sink "") ~chips:[ chip ]
      ~environments_for:(fun _ -> [ env ])
      ~apps:(List.filter_map Apps.Registry.by_name [ "cbe-dot" ])
      ~runs:8 ~seed:7 ()
  in
  Core.Runlog.append_result sink ~kind:"campaign"
    (Core.Campaign.rows_to_json rows);
  Core.Runlog.close sink;
  Alcotest.(check string) "the campaign written in-process" golden
    (read_all path);
  match Core.Runlog.load "golden/campaign-k20.jsonl" with
  | Error e -> Alcotest.fail e
  | Ok l ->
    let sink = Core.Runlog.create ~deterministic:true ~path l.header in
    List.iter (Core.Runlog.append_job sink) l.jobs;
    Option.iter
      (fun (kind, data) -> Core.Runlog.append_result sink ~kind data)
      l.result;
    Core.Runlog.close sink;
    Alcotest.(check string) "the golden loaded and written back" golden
      (read_all path)

(* Kill the writer at any byte after the header line: the ledger keeps
   every record whose text lies wholly before the cut, and is torn only
   when the cut splits a line (one cut just before a '\n' leaves a
   whole record). *)
let prop_torn_tail_tolerated =
  QCheck.Test.make ~name:"torn tail tolerated" ~count:200
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun c ->
      let full_text, _ = Lazy.force full in
      let full_l =
        match Core.Runlog.parse full_text with
        | Ok l -> l
        | Error e -> failwith e
      in
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' full_text)
      in
      let hlen = String.length (List.hd lines) in
      let cut = hlen + (c mod (String.length full_text - hlen + 1)) in
      let rec count off whole = function
        | [] -> (whole, false)
        | l :: rest ->
          let stop = off + String.length l in
          if stop <= cut then count (stop + 1) (whole + 1) rest
          else (whole, off < cut)
      in
      let whole, torn = count 0 0 lines in
      match Core.Runlog.parse (String.sub full_text 0 cut) with
      | Error _ -> false
      | Ok l ->
        let open Core.Runlog in
        let n = List.length l.jobs in
        l.torn = torn
        && l.jobs = take n full_l.jobs
        && 1 + n + Bool.to_int (l.result <> None)
           + Bool.to_int (l.footer <> None)
           = whole)

let test_malformed_middle_rejected () =
  let full_text, _ = Lazy.force full in
  let ls = String.split_on_char '\n' full_text in
  let text =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 1 then "not json" else l) ls)
  in
  match Core.Runlog.parse text with
  | Error e ->
    Alcotest.(check bool) "error names the line" true
      (Test_util.contains e "line")
  | Ok _ -> Alcotest.fail "corrupt middle line must not parse"

let test_seed_mismatch_fails_closed () =
  let full_text, _ = Lazy.force full in
  let path = temp () in
  write_all path full_text;
  let cache = cache_of path in
  Sys.remove path;
  let out = temp () in
  let raised =
    let sink =
      Core.Runlog.create ~deterministic:true ~path:out
        (header ~campaign:"test" ~seed:(cseed + 1))
    in
    let journal = Core.Runlog.journal ~sink ~cache "" in
    match
      Core.Campaign.run ~journal ~chips:[ chip ] ~environments_for:envs
        ~apps ~runs ~seed:(cseed + 1) ()
    with
    | _ ->
      Core.Runlog.close sink;
      false
    | exception Failure _ ->
      Core.Runlog.abort sink;
      true
  in
  Sys.remove out;
  Alcotest.(check bool) "resume at a different seed raises" true raised

(* ------------------------------------------------------------------ *)
(* Supervision records: attempts, quarantined jobs, and the guarantee
   that fault-free ledgers stay byte-identical (every new field is
   serialised conditionally).                                          *)

let test_failed_record_roundtrip () =
  let path = temp () in
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (header ~campaign:"test" ~seed:1)
  in
  let jn = Core.Runlog.journal ~sink "" in
  Core.Runlog.record jn ~index:0 ~seed:100 ~errors:0 ~duration_s:0.0
    (Core.Json.Int 1);
  Core.Runlog.record jn ~attempts:3 ~index:1 ~seed:101 ~errors:2
    ~duration_s:0.0 (Core.Json.Int 2);
  Core.Runlog.record_failure jn ~index:2 ~seed:102 ~attempts:2
    ~duration_s:0.0 "boom";
  Core.Runlog.close sink;
  let text = read_all path in
  (match String.split_on_char '\n' text with
  | _header :: j0 :: _j1 :: _j2 :: footer :: _ ->
    (* Byte-stability: a fault-free job record carries neither of the new
       fields, while a degraded footer counts its quarantined jobs. *)
    Alcotest.(check bool) "attempts=1 is not serialised" false
      (Test_util.contains j0 "attempts");
    Alcotest.(check bool) "healthy jobs carry no failed field" false
      (Test_util.contains j0 "failed");
    Alcotest.(check bool) "degraded footer counts quarantines" true
      (Test_util.contains footer "quarantined")
  | _ -> Alcotest.fail "unexpected ledger shape");
  (match Core.Runlog.parse text with
  | Error e -> Alcotest.fail e
  | Ok l -> (
    match l.Core.Runlog.jobs with
    | [ j0; j1; j2 ] ->
      Alcotest.(check int) "default attempts" 1 j0.Core.Runlog.attempts;
      Alcotest.(check bool) "healthy job has no failure" true
        (j0.Core.Runlog.failed = None);
      Alcotest.(check int) "retried attempts round-trip" 3
        j1.Core.Runlog.attempts;
      Alcotest.(check bool) "quarantine reason round-trips" true
        (j2.Core.Runlog.failed = Some "boom");
      Alcotest.(check bool) "quarantined record carries no result" true
        (j2.Core.Runlog.result = Core.Json.Null);
      (match l.Core.Runlog.footer with
      | Some f ->
        Alcotest.(check int) "footer counts the quarantine" 1
          f.Core.Runlog.quarantined
      | None -> Alcotest.fail "footer missing");
      (* Recovery path: the failed record satisfies plan order but must
         not be replayed as a cached result. *)
      let cache = Core.Runlog.cache_of_ledger l in
      let jc = Core.Runlog.journal ~cache ~origin:path "" in
      Alcotest.(check bool) "failed record is not resumable" true
        (Core.Runlog.cached_value jc ~codec:Core.Runlog.int_codec ~index:2
           ~seed:102
        = None);
      Alcotest.(check bool) "healthy record is resumable" true
        (match
           Core.Runlog.cached_value jc ~codec:Core.Runlog.int_codec ~index:1
             ~seed:101
         with
        | Some (2, j) -> j.Core.Runlog.attempts = 3
        | _ -> false)
    | js -> Alcotest.failf "expected 3 job records, got %d" (List.length js)));
  Sys.remove path

let test_clean_footer_has_no_quarantined_field () =
  let path = temp () in
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (header ~campaign:"test" ~seed:1)
  in
  let jn = Core.Runlog.journal ~sink "" in
  Core.Runlog.record jn ~index:0 ~seed:100 ~errors:0 ~duration_s:0.0
    (Core.Json.Int 1);
  Core.Runlog.close sink;
  let text = read_all path in
  Sys.remove path;
  Alcotest.(check bool)
    "a clean ledger never mentions quarantine (byte-stability)" false
    (Test_util.contains text "quarantined")

let test_cached_mismatch_names_origin () =
  let path = temp () in
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (header ~campaign:"test" ~seed:1)
  in
  let jn = Core.Runlog.journal ~sink "" in
  Core.Runlog.record jn ~index:0 ~seed:100 ~errors:0 ~duration_s:0.0
    (Core.Json.Int 1);
  Core.Runlog.close sink;
  let cache = cache_of path in
  Sys.remove path;
  let jc = Core.Runlog.journal ~cache ~origin:"old.jsonl" "" in
  match
    Core.Runlog.cached_value jc ~codec:Core.Runlog.int_codec ~index:0
      ~seed:999
  with
  | _ -> Alcotest.fail "a seed mismatch must raise"
  | exception Failure msg ->
    Alcotest.(check string) "the message names the ledger and both seeds"
      "old.jsonl: cached job /0 seed mismatch: the ledger records seed \
       100, this invocation plans seed 999 — refusing to resume a \
       different campaign"
      msg

let test_validate_resume_wording () =
  let path = temp () in
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (header ~campaign:"test" ~seed:11)
  in
  let jn = Core.Runlog.journal ~sink "" in
  Core.Runlog.record jn ~index:0 ~seed:100 ~errors:0 ~duration_s:0.0
    (Core.Json.Int 1);
  Core.Runlog.close sink;
  let l =
    match Core.Runlog.load path with Ok l -> l | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let validate = Core.Runlog.validate_resume l ~path:"led.jsonl" in
  Alcotest.(check bool) "a matching invocation validates" true
    (validate ~campaign:"test" ~seed:11 ~grid:Core.Json.Null = Ok ());
  let err = function Error e -> e | Ok () -> Alcotest.fail "must not validate" in
  Alcotest.(check string) "campaign mismatch names both kinds"
    "led.jsonl: campaign kind mismatch: the ledger records a \"test\" \
     campaign, this invocation is \"tune\""
    (err (validate ~campaign:"tune" ~seed:11 ~grid:Core.Json.Null));
  Alcotest.(check string) "seed mismatch names both seeds"
    "led.jsonl: seed mismatch: the ledger was run with --seed 11, this \
     invocation uses --seed 12"
    (err (validate ~campaign:"test" ~seed:12 ~grid:Core.Json.Null));
  let grid = Core.Json.Assoc [ ("runs", Core.Json.Int 8) ] in
  Alcotest.(check string) "grid mismatch renders both grids"
    (Printf.sprintf
       "led.jsonl: parameter grid mismatch: the ledger records %s, this \
        invocation plans %s"
       (Core.Json.to_string Core.Json.Null)
       (Core.Json.to_string grid))
    (err (validate ~campaign:"test" ~seed:11 ~grid))

(* ------------------------------------------------------------------ *)
(* Kill/resume byte-identity                                           *)

let resume_prop =
  QCheck.Test.make
    ~name:"campaign kill/resume is byte-identical (any kill point, jobs)"
    ~count:12
    QCheck.(pair small_nat (int_range 0 2))
    (fun (kraw, jidx) ->
      let full_text, full_rows = Lazy.force full in
      let ls = String.split_on_char '\n' full_text in
      let njobs = job_count full_text in
      let k = kraw mod (njobs + 1) in
      let jobs = [| 1; 2; 4 |].(jidx) in
      let path = temp () in
      (* the ledger a kill at job k leaves behind: header + k records *)
      write_all path (String.concat "\n" (take (1 + k) ls) ^ "\n");
      let cache = cache_of path in
      let rows = run_campaign ~cache ~path ~jobs () in
      let text = read_all path in
      Sys.remove path;
      Core.Runlog.cache_size cache = k
      && rows = full_rows && text = full_text)

(* ------------------------------------------------------------------ *)
(* Multi-phase resume: tuning (patch -> seq -> spread) and hardening's
   sequential memoised check stream.  The tuning run is journalled on
   two domains and recomputed serially from each prefix; the empty
   prefix recomputes all three stages, so it also checks that a whole
   tuning run is identical on both backends.                           *)

let test_tuning_resume () =
  with_deterministic_env @@ fun () ->
  let tseed = 5 in
  let budget = Core.Budget.quick in
  let run_tuning ?cache ~path ~jobs () =
    let sink =
      Core.Runlog.create ~path (header ~campaign:"tune" ~seed:tseed)
    in
    let journal = Core.Runlog.journal ~sink ?cache "" in
    match
      Core.Tuning.run
        ~backend:(Core.Exec.backend_of_jobs jobs)
        ~journal ~chip ~seed:tseed ~budget ()
    with
    | r ->
      Core.Runlog.append_result sink ~kind:"tuning"
        (Core.Tuning.result_to_json r);
      Core.Runlog.close sink;
      r
    | exception e ->
      Core.Runlog.abort sink;
      raise e
  in
  let path = temp () in
  let r_full = run_tuning ~path ~jobs:2 () in
  let full_text = read_all path in
  let ls = String.split_on_char '\n' full_text in
  let total = job_count full_text in
  List.iter
    (fun quarter ->
      let k = total * quarter / 4 in
      write_all path (String.concat "\n" (take (1 + k) ls) ^ "\n");
      let cache = cache_of path in
      let r = run_tuning ~cache ~path ~jobs:1 () in
      Alcotest.(check bool)
        (Printf.sprintf "resume at %d/%d job(s): same result" k total)
        true (r = r_full);
      Alcotest.(check bool)
        (Printf.sprintf "resume at %d/%d job(s): same bytes" k total)
        true
        (read_all path = full_text))
    [ 0; 1; 2; 3 ];
  Sys.remove path

let test_harden_memo_resume () =
  with_deterministic_env @@ fun () ->
  let hseed = 3 in
  let app = List.hd Apps.Registry.fence_free in
  let config =
    { (Core.Harden.default_config ~chip) with
      initial_iterations = 4;
      stability_runs = 8 }
  in
  let run_h ?cache ~path () =
    let sink =
      Core.Runlog.create ~path (header ~campaign:"harden" ~seed:hseed)
    in
    let journal = Core.Runlog.journal ~sink ?cache "" in
    match Core.Harden.insert ~chip ~config ~journal ~app ~seed:hseed () with
    | r ->
      Core.Runlog.append_result sink ~kind:"harden"
        (Core.Codec.encode Core.Harden.results [ r ]);
      Core.Runlog.close sink;
      r
    | exception e ->
      Core.Runlog.abort sink;
      raise e
  in
  let path = temp () in
  let r_full = run_h ~path () in
  let full_text = read_all path in
  let ls = String.split_on_char '\n' full_text in
  let total = job_count full_text in
  Alcotest.(check bool) "hardening journals its checks" true (total > 0);
  let k = total / 2 in
  write_all path (String.concat "\n" (take (1 + k) ls) ^ "\n");
  let cache = cache_of path in
  let r = run_h ~cache ~path () in
  Alcotest.(check bool) "resumed hardening: same result" true (r = r_full);
  Alcotest.(check bool) "resumed hardening: same bytes" true
    (read_all path = full_text);
  Sys.remove path

let () =
  Alcotest.run "runlog"
    [ ( "ledger",
        [ Alcotest.test_case "load round-trip, report identity" `Slow
            test_load_roundtrip;
          QCheck_alcotest.to_alcotest ~speed_level:`Slow
            prop_torn_tail_tolerated;
          Alcotest.test_case "malformed middle rejected" `Slow
            test_malformed_middle_rejected;
          Alcotest.test_case "seed mismatch fails closed" `Slow
            test_seed_mismatch_fails_closed;
          Alcotest.test_case "failed record round-trip" `Quick
            test_failed_record_roundtrip;
          Alcotest.test_case "clean footer byte-stable" `Quick
            test_clean_footer_has_no_quarantined_field;
          Alcotest.test_case "cached mismatch names origin" `Quick
            test_cached_mismatch_names_origin;
          Alcotest.test_case "validate_resume wording" `Quick
            test_validate_resume_wording;
          Alcotest.test_case "golden ledger" `Quick test_golden_ledger ] );
      ( "resume",
        [ QCheck_alcotest.to_alcotest resume_prop;
          Alcotest.test_case "tuning resumes across phases" `Slow
            test_tuning_resume;
          Alcotest.test_case "hardening resumes its memoised checks" `Slow
            test_harden_memo_resume ] ) ]
