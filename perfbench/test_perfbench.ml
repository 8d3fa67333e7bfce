(* Tests of the benchmark's own code: the order-statistics rules, the
   latency extraction from a queue journal, the reference digest check,
   the table5 pass against Campaign.run, and the simulated-statistics
   sample against the code it samples. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close a b = Float.abs (a -. b) < 1e-9

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_median () =
  check "median, odd count" (close (Stats.median [ 5.0; 1.0; 3.0 ]) 3.0);
  check "median, even count" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "midmean, three samples: all of them"
    (close (Stats.midmean [ 1.0; 2.0; 6.0 ]) 3.0);
  check "midmean, eight samples: the quarter at each end dropped"
    (close (Stats.midmean [ 100.0; 4.0; 4.0; 8.0; 8.0; 0.0; 8.0; 4.0 ]) 6.0)

(* A percentile is reported only when at least ten samples lie beyond
   it. *)
let test_percentile () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  check "9 samples: no percentile, not even the median"
    (Stats.tail_percentile (upto 9) = None);
  check "19 samples: still none (9 above the median)"
    (Stats.tail_percentile (upto 19) = None);
  check "20 samples: the median, 10 beyond it"
    (Stats.tail_percentile (upto 20) = Some (50.0, 10.0));
  check "40 samples: p75, 10 beyond it"
    (Stats.tail_percentile (upto 40) = Some (75.0, 30.0));
  check "1000 samples: p99, 10 beyond it"
    (Stats.tail_percentile (upto 1000) = Some (99.0, 990.0));
  check "ties at the value do not count as beyond it"
    (Stats.tail_percentile (List.init 30 (fun _ -> 1.0)) = None)

let canned_journal =
  {|{"ev":"submit","t":100.25,"id":"job-1","kind":"test","chip":"K20","runs":2,"env":"sys-str+","seed":7,"workers":2,"priority":0,"max_attempts":3}
{"ev":"lease","t":100.5,"id":"job-1","shard":1,"pid":11,"attempt":1,"deadline":130.5}
{"ev":"lease","t":100.5,"id":"job-1","shard":2,"pid":12,"attempt":1,"deadline":130.5}
{"ev":"done","t":101.75,"id":"job-1","shard":2}
{"ev":"done","t":102.25,"id":"job-1","shard":1}
{"ev":"finish","t":102.25,"id":"job-1","status":"done","ledger":"state/job-1.jsonl"}
{"ev":"submit","t":103.5,"id":"job-2","kind":"test","chip":"980","runs":3,"env":"sys-str+","seed":8,"workers":2,"priority":0,"max_attempts":3}
{"ev":"lease","t":103.75,"id":"job-2","shard":1,"pid":13,"attempt":1,"deadline":133.75}
{"ev":"lease","t":103.75,"id":"job-2","shard":2,"pid":14,"attempt":1,"deadline":133.75}
{"ev":"requeue","t":104.5,"id":"job-2","shard":1,"attempt":1,"reason":"exited 2","not_before":105.25}
{"ev":"done","t":104.75,"id":"job-2","shard":2}
{"ev":"lease","t":105.5,"id":"job-2","shard":1,"pid":15,"attempt":2,"deadline":135.5}
{"ev":"done","t":106.25,"id":"job-2","shard":1}
{"ev":"finish","t":106.25,"id":"job-2","status":"done","ledger":"state/job-2.jsonl"}
{"ev":"submit","t":107.0,"id":"job-3","kind":"test","chip":"K20","runs":2,"env":"sys-str+","seed":9,"workers":2,"priority":0,"max_attempts":3}
|}

let test_journal () =
  let path = tmp "perfbench-test-queue.jsonl" in
  Common.write_file path canned_journal;
  (match Core.Queue.load path with
  | Error e -> check ("canned journal loads: " ^ e) false
  | Ok (events, torn) ->
    check "canned journal is not torn" (not torn);
    match Journal.campaigns events with
    | [ j1; j2; j3 ] ->
      check "campaigns in submission order"
        (j1.Journal.id = "job-1" && j2.Journal.id = "job-2" && j3.Journal.id = "job-3");
      check "latency is Finished.t - Submitted.t"
        (match Journal.latency j1 with Some l -> close l 2.0 | None -> false);
      check "queue wait is the first lease"
        (match Journal.queue_wait j1 with Some w -> close w 0.25 | None -> false);
      check "per-shard completion times"
        (List.assoc_opt 2 j1.Journal.shard_done = Some 101.75
        && List.assoc_opt 1 j1.Journal.shard_done = Some 102.25);
      check "a clean campaign is clean" (Journal.clean j1);
      check "a requeued campaign is a failed operation"
        (j2.Journal.requeues = 1 && not (Journal.clean j2));
      check "the retry's lease does not replace the first"
        (List.assoc_opt 1 j2.Journal.leased = Some 103.75);
      check "an unfinished campaign has no latency" (Journal.latency j3 = None)
    | l -> check (Printf.sprintf "three campaigns (got %d)" (List.length l)) false);
  Sys.remove path

(* A small ledger written the way `gpuwmm test` writes one. *)
let write_ledger path =
  let chip = Option.get (Gpusim.Chip.by_name "K20") in
  let app = Option.get (Apps.Registry.by_name "cbe-dot") in
  let env = Core.Environment.sys_plus ~tuned:(Core.Campaign.sys_tuned_for chip) in
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (Core.Runlog.make_header ~campaign:"test" ~seed:7 ~grid:Core.Json.Null ())
  in
  let rows =
    Core.Campaign.run
      ~journal:(Core.Runlog.journal ~sink "")
      ~chips:[ chip ] ~environments_for:(fun _ -> [ env ]) ~apps:[ app ] ~runs:3
      ~seed:7 ()
  in
  Core.Runlog.append_result sink ~kind:"campaign" (Core.Campaign.rows_to_json rows);
  Core.Runlog.close sink;
  rows

let replace_first s ~sub ~by =
  match Common.find_sub s sub with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by
    ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

let test_digests () =
  let path = tmp "perfbench-test-ledger.jsonl" in
  let rows = write_ledger path in
  let book = Ledgers.recording () in
  let key = "campaign.test.ledger" and rows_key = "campaign.test.rows" in
  check "a recording book records the first digest"
    (Ledgers.check book ~key (Ledgers.digest_file path) = Ok ()
    && Ledgers.check book ~key:rows_key (Ledgers.rows_digest rows) = Ok ());
  check "the loaded result record matches the rows"
    (match Ledgers.campaign_rows path with
    | Ok loaded -> Ledgers.rows_digest loaded = Ledgers.rows_digest rows
    | Error _ -> false);
  (* The reference as a run sees it: saved, then loaded. *)
  let records = tmp "perfbench-test-reference.tsv" in
  Ledgers.save book records;
  let reference = Ledgers.load records in
  Sys.remove records;
  check "the same ledger passes against the reference"
    (Ledgers.check reference ~key (Ledgers.digest_file path) = Ok ());
  check "a key with no reference fails"
    (Result.is_error (Ledgers.check reference ~key:"campaign.other.ledger" "d"));
  check "a missing reference file fails every key"
    (Result.is_error
       (Ledgers.check (Ledgers.load (tmp "perfbench-no-such-file.tsv")) ~key
          (Ledgers.digest_file path)));
  let text = Common.read_file path in
  (* Change the run count in the result record only. *)
  let tampered =
    String.concat "\n"
      (List.map
         (fun line ->
           if Common.find_sub line "\"rec\":\"result\"" = None then line
           else replace_first line ~sub:"\"runs\":3" ~by:"\"runs\":4")
         (String.split_on_char '\n' text))
  in
  check "tampering changed the ledger" (tampered <> text);
  Common.write_file path tampered;
  check "a tampered ledger fails the byte check"
    (Result.is_error (Ledgers.check reference ~key (Ledgers.digest_file path)));
  check "a tampered result record fails the rows check"
    (match Ledgers.campaign_rows path with
    | Ok loaded ->
      Result.is_error (Ledgers.check reference ~key:rows_key (Ledgers.rows_digest loaded))
    | Error _ -> true);
  (* An interrupted ledger (no footer) is refused outright. *)
  let lines = String.split_on_char '\n' text in
  let cut = String.concat "\n" (List.filteri (fun i _ -> i < 2) lines) ^ "\n" in
  Common.write_file path cut;
  check "an interrupted ledger is refused" (Result.is_error (Ledgers.campaign_rows path));
  Sys.remove path

(* The table5 pass journals the same rows Campaign.run computes on the
   serial backend. *)
let test_table5_pass () =
  let path = tmp "perfbench-test-pass.jsonl" in
  let rows = Wl_table5.pass ~seed:11 ~deterministic:true path in
  let reference =
    Core.Campaign.run ~backend:Core.Exec.Serial ~chips:Wl_table5.chips
      ~environments_for:Wl_table5.envs_for ~apps:Apps.Registry.all ~runs:Wl_table5.runs
      ~seed:11 ()
  in
  check "table5 pass = Campaign.run ~backend:Serial"
    (Ledgers.rows_digest rows = Ledgers.rows_digest reference);
  check "table5 pass ledger round-trips"
    (match Ledgers.campaign_rows path with
    | Ok loaded -> Ledgers.rows_digest loaded = Ledgers.rows_digest rows
    | Error _ -> false);
  Sys.remove path

(* The application sample counts what Campaign.test_app simulates: its
   own poll check passes, and the counts change with the cells. *)
let test_app_sample () =
  let chip = Option.get (Gpusim.Chip.by_name "K20") in
  let env = Core.Environment.sys_plus ~tuned:(Core.Campaign.sys_tuned_for chip) in
  let cells seed = List.map (fun app -> (chip, env, app, seed)) Apps.Registry.all in
  let failed0 = !Common.failed in
  let a, _ = Simstats.app_sample (cells 3) in
  let b, _ = Simstats.app_sample (cells 3) in
  let c, _ = Simstats.app_sample (cells 4) in
  check "the sample agrees with Campaign.test_app's poll count" (!Common.failed = failed0);
  check "every application launched" (a.Simstats.launches >= List.length Apps.Registry.all);
  check "the launches ran past the poll interval" (a.Simstats.polls > 0);
  check "the counts repeat exactly" (Simstats.to_list a = Simstats.to_list b);
  check "other seeds give other counts" (Simstats.to_list a <> Simstats.to_list c)

let () =
  test_median ();
  test_percentile ();
  test_journal ();
  test_digests ();
  test_table5_pass ();
  test_app_sample ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
