(* Core.Shard and gpuwmm merge: exact partitioning for any plan and any
   N (property-tested), shard-then-merge ledgers
   byte-identical to the serial deterministic ledger (including after a
   shard is killed mid-run and resumed), and fail-closed merge
   validation for every refusal case. *)

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

let temp () = Filename.temp_file "shard" ".jsonl"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let with_deterministic_env f =
  Unix.putenv "GPUWMM_LEDGER_DETERMINISTIC" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "GPUWMM_LEDGER_DETERMINISTIC" "0")
    f

let shard spec =
  match Core.Shard.parse spec with
  | Ok sh -> sh
  | Error e -> failwith (spec ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let test_parse () =
  let sh = shard "3/8" in
  Alcotest.(check int) "k" 3 sh.Core.Shard.k;
  Alcotest.(check int) "n" 8 sh.Core.Shard.n;
  Alcotest.(check string) "stride renders bare" "3/8"
    (Core.Shard.to_string sh);
  (* k/N is the whole spec: no partition-strategy suffix parses. *)
  List.iter
    (fun bad ->
      match Core.Shard.parse bad with
      | Ok _ -> Alcotest.failf "%S parsed" bad
      | Error _ -> ())
    ([ "0/4"; "5/4"; "1/0"; "1/513"; "x/4"; "1-4"; "" ]
    @ List.map (( ^ ) "2/4:") [ "contiguous"; "stride"; "zigzag" ])

(* ------------------------------------------------------------------ *)
(* Exact partition (property)                                          *)

let partition_prop =
  QCheck.Test.make ~count:300 ~name:"every job in exactly one shard"
    QCheck.(pair (int_range 0 200) (int_range 1 64))
    (fun (total, n) ->
      let shards = List.init n (fun i -> Core.Shard.make ~k:(i + 1) ~n ()) in
      (* Each index owned exactly once. *)
      for i = 0 to total - 1 do
        let owners =
          List.filter (fun sh -> Core.Shard.owns sh ~total i) shards
        in
        if List.length owners <> 1 then
          QCheck.Test.fail_reportf "index %d of %d has %d owners (n=%d)"
            i total (List.length owners) n
      done;
      (* Ranks are dense 0..count-1 in increasing index order, and
         [indices] inverts [rank]. *)
      List.iter
        (fun sh ->
          let owned =
            List.filter (Core.Shard.owns sh ~total) (List.init total Fun.id)
          in
          let count = Core.Shard.count sh ~total in
          if List.length owned <> count then
            QCheck.Test.fail_reportf "count %d but %d owned" count
              (List.length owned);
          List.iteri
            (fun r i ->
              if Core.Shard.rank sh ~total i <> r then
                QCheck.Test.fail_reportf "rank of %d is %d, want %d" i
                  (Core.Shard.rank sh ~total i)
                  r)
            owned;
          if Core.Shard.indices sh ~total <> owned then
            QCheck.Test.fail_reportf "indices disagree with owns")
        shards;
      true)

(* ------------------------------------------------------------------ *)
(* Shard-then-merge byte-identity                                      *)

(* A campaign as its CLI command plans and ledgers it. *)
type campaign = {
  kind : string;
  chips : Gpusim.Chip.t list;
  envs : Gpusim.Chip.t -> Core.Environment.t list;
  apps : Apps.App.t list;
  runs : int;
  grid : Core.Json.t;
}

let json_strs l = Core.Json.List (List.map (fun s -> Core.Json.String s) l)

(* The same small fixed campaign as test_runlog, but with a real
   parameter grid in the header: merge reconstructs the campaign result
   from the grid's chips/envs/apps lists. *)
let chip = Gpusim.Chip.k20
let apps = List.filter_map Apps.Registry.by_name [ "cbe-dot"; "sdk-red" ]

let envs _chip =
  let tuned = Core.Tuning.shipped ~chip in
  [ Core.Environment.make Core.Stress.No_stress ~randomise:false;
    Core.Environment.sys_plus ~tuned ]

let cseed = 11

let test_campaign =
  { kind = "test"; chips = [ chip ]; envs; apps; runs = 12;
    grid =
      Core.Json.Assoc
        [ ("chips", json_strs [ chip.Gpusim.Chip.name ]);
          ("envs",
           json_strs
             (List.map (fun e -> e.Core.Environment.label) (envs chip)));
          ("apps", json_strs (List.map (fun a -> a.Apps.App.name) apps));
          ("runs", Core.Json.Int 12) ] }

(* Table 5 on two chips, with the grid `gpuwmm table 5` writes: no envs
   or apps lists, so the merge takes the environment labels from
   Campaign.environments and the row width from the app registry. *)
let table5_campaign =
  let chips = [ Gpusim.Chip.k20; Gpusim.Chip.gtx980 ] in
  { kind = "table5"; chips; envs = Core.Campaign.environments;
    apps = Apps.Registry.all; runs = 1;
    grid =
      Core.Json.Assoc
        [ ("chips",
           json_strs (List.map (fun c -> c.Gpusim.Chip.name) chips));
          ("budget", Core.Budget.to_json Core.Budget.default);
          ("runs", Core.Json.Int 1) ] }

let header ?shard ?(camp = test_campaign) () =
  { Core.Runlog.schema = Core.Runlog.schema_version;
    campaign = camp.kind; argv = []; seed = cseed; jobs = 0;
    grid = camp.grid; git = None; created = 0.0; shard; merged = None }

(* The shard travels with the journal, as the CLI's --shard passes it. *)
let run_campaign ?cache ?shard ?(camp = test_campaign) ~path () =
  let sink =
    Core.Runlog.create ~deterministic:true ~path
      (header ?shard:(Option.map Core.Shard.to_string shard) ~camp ())
  in
  let journal = Core.Runlog.journal ~sink ?cache ?shard "" in
  let rows =
    Core.Campaign.run ~backend:Core.Exec.Serial ~journal ~chips:camp.chips
      ~environments_for:camp.envs ~apps:camp.apps ~runs:camp.runs
      ~seed:cseed ()
  in
  (match shard with
  | Some _ -> ()  (* a shard ledger carries no result record *)
  | None ->
    Core.Runlog.append_result sink ~kind:"campaign"
      (Core.Campaign.rows_to_json rows));
  Core.Runlog.close sink;
  rows

(* The uninterrupted single-process reference. *)
let reference camp =
  let path = temp () in
  let rows = run_campaign ~camp ~path () in
  let text = read_all path in
  Sys.remove path;
  (text, rows)

let full = lazy (reference test_campaign)

let write_shards ?camp ~n () =
  List.init n (fun i ->
      let path = temp () in
      let sh = shard (Printf.sprintf "%d/%d" (i + 1) n) in
      ignore (run_campaign ?camp ~shard:sh ~path ());
      path)

let merge_to paths =
  let out = temp () in
  let r = with_deterministic_env (fun () -> Core.Merge.merge ~out paths) in
  (out, r)

let cleanup paths = List.iter Sys.remove paths

let test_merge_identity () =
  List.iter
    (fun (camp, (reference, _)) ->
      List.iter
        (fun n ->
          let paths = write_shards ~camp ~n () in
          let out, r = merge_to paths in
          (match r with
          | Error e -> Alcotest.failf "%s merge (n=%d) failed: %s" camp.kind n e
          | Ok _ -> ());
          (match Core.Runlog.load out with
          | Ok l ->
            Alcotest.(check bool)
              "result reconstructed" true (l.Core.Runlog.result <> None)
          | Error e -> Alcotest.failf "merged ledger unreadable: %s" e);
          Alcotest.(check string)
            (Printf.sprintf "%s merged = serial (n=%d)" camp.kind n)
            reference (read_all out);
          cleanup (out :: paths))
        [ 2; 3; 4 ])
    [ (test_campaign, Lazy.force full);
      (table5_campaign, reference table5_campaign) ]

(* Kill shard 2 mid-run (simulated by truncating its ledger inside the
   job stream), verify the merge refuses, resume the shard, and verify
   the re-merge is byte-identical to the serial reference.  A 2-way
   split of the 4-job plan gives the victim two jobs (indices 1 and 3),
   so the truncation leaves a partial — not empty — shard and the
   resume exercises cache replay. *)
let test_kill_resume_merge () =
  let reference, _ = Lazy.force full in
  let paths = write_shards ~n:2 () in
  let victim = List.nth paths 1 in
  let whole = read_all victim in
  let lines = String.split_on_char '\n' whole in
  (* keep the header and the first job record, drop the rest *)
  write_all victim (String.concat "\n" [ List.nth lines 0; List.nth lines 1 ] ^ "\n");
  (match merge_to paths with
  | out, Error e ->
    Sys.remove out;
    if not (contains ~affix:"missing" e) then
      Alcotest.failf "refusal does not name the missing job: %s" e
  | out, Ok _ ->
    Sys.remove out;
    Alcotest.fail "merge accepted a truncated shard");
  (* resume the victim in place: replay its cache, re-run the rest *)
  let cache =
    match Core.Runlog.load victim with
    | Ok l -> Core.Runlog.cache_of_ledger l
    | Error e -> failwith e
  in
  ignore (run_campaign ~cache ~shard:(shard "2/2") ~path:victim ());
  (match merge_to paths with
  | out, Ok _ ->
    Alcotest.(check string) "resumed merge = serial" reference (read_all out);
    Sys.remove out
  | _, Error e -> Alcotest.failf "merge after resume failed: %s" e);
  cleanup paths

let test_merge_fail_closed () =
  let expect_error ?(naming = "") ~what paths =
    let out, r = merge_to paths in
    match r with
    | Ok _ -> Alcotest.failf "merge accepted %s" what
    | Error e ->
      if not (contains ~affix:naming e) then
        Alcotest.failf "refusal of %s does not name %S: %s" what naming e;
      if Sys.file_exists out && String.length (read_all out) > 0 then
        Alcotest.failf "failed merge of %s left output behind" what;
      if Sys.file_exists out then Sys.remove out
  in
  let paths = write_shards ~n:3 () in
  (* missing shard *)
  expect_error ~what:"an incomplete shard set" (List.tl paths);
  (* duplicated shard *)
  expect_error ~what:"a duplicated shard" (List.hd paths :: paths);
  (* mixed N: shard 2/4 inside a 3-way set *)
  let four = write_shards ~n:4 () in
  expect_error ~what:"mixed shard counts"
    [ List.nth paths 0; List.nth four 1; List.nth paths 2 ];
  (* plan-header mismatch: swap in a shard whose seed differs *)
  let rogue = temp () in
  let rogue_header =
    { (header ~shard:"2/3" ()) with Core.Runlog.seed = cseed + 1 }
  in
  let sink = Core.Runlog.create ~deterministic:true ~path:rogue rogue_header in
  Core.Runlog.close sink;
  expect_error ~what:"a seed mismatch"
    [ List.nth paths 0; rogue; List.nth paths 2 ];
  (* unsharded input *)
  let plain = temp () in
  let sink = Core.Runlog.create ~deterministic:true ~path:plain (header ()) in
  Core.Runlog.close sink;
  expect_error ~what:"an unsharded ledger" [ plain ];
  (* --out naming a shard ledger under another spelling *)
  let victim = List.hd paths in
  let before = read_all victim in
  let alias =
    Filename.concat (Filename.dirname victim)
      (Filename.concat Filename.current_dir_name (Filename.basename victim))
  in
  (match
     with_deterministic_env (fun () -> Core.Merge.merge ~out:alias paths)
   with
  | Ok _ -> Alcotest.fail "merge wrote over a shard ledger spelled differently"
  | Error _ -> ());
  Alcotest.(check string) "the aliased shard ledger is untouched" before
    (read_all victim);
  (* A tune campaign cannot shard: its first Exec.run refuses a shard
     journal, and a tune-kind shard pair does not merge. *)
  let tune =
    List.init 2 (fun i ->
        let path = temp () in
        let spec = Printf.sprintf "%d/2" (i + 1) in
        let sink =
          Core.Runlog.create ~deterministic:true ~path
            { (header ~shard:spec ()) with Core.Runlog.campaign = "tune" }
        in
        (match
           Core.Tuning.run
             ~journal:(Core.Runlog.journal ~sink ~shard:(shard spec) "")
             ~chip ~seed:cseed ~budget:Core.Budget.quick ()
         with
        | _ -> Alcotest.fail "Tuning.run ran under a shard journal"
        | exception Invalid_argument msg ->
          if not (contains ~affix:"shard_placeholder" msg) then
            Alcotest.failf "refused for another reason: %s" msg);
        Core.Runlog.close sink;
        path)
  in
  expect_error ~naming:"\"tune\"" ~what:"a tune campaign" tune;
  cleanup (rogue :: plain :: (paths @ four @ tune))

(* ------------------------------------------------------------------ *)
(* Merged-ledger provenance (outside deterministic mode)               *)

let test_merged_provenance () =
  let paths = write_shards ~n:2 () in
  let out = temp () in
  (* not under with_deterministic_env: provenance survives *)
  (match Core.Merge.merge ~out paths with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "merge failed: %s" e);
  (match Core.Runlog.load out with
  | Error e -> Alcotest.failf "merged ledger unreadable: %s" e
  | Ok l ->
    (match l.Core.Runlog.header.Core.Runlog.merged with
    | Some srcs ->
      Alcotest.(check (list string)) "merged field names the shards" paths srcs
    | None -> Alcotest.fail "merged ledger lacks the merged field");
    Alcotest.(check bool) "shard field stripped" true
      (l.Core.Runlog.header.Core.Runlog.shard = None);
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Core.Report.provenance ppf ~path:out l.Core.Runlog.header;
    Format.pp_print_flush ppf ();
    let stamp = Buffer.contents buf in
    if not (contains ~affix:"merged 2 shards" stamp) then
      Alcotest.failf "provenance stamp lacks the merge line:\n%s" stamp;
    (* compare: merged campaign result = single-process result *)
    let _, serial_rows = Lazy.force full in
    (match l.Core.Runlog.result with
    | Some ("campaign", data) ->
      let rows =
        match Core.Campaign.rows_of_json data with
        | Ok rows -> rows
        | Error e -> Alcotest.failf "merged result does not decode: %s" e
      in
      let c =
        Core.Report.compare_campaigns ~tolerance:0.0 ~baseline:serial_rows
          ~candidate:rows
      in
      Alcotest.(check int) "no regressions vs single-process" 0
        (List.length c.Core.Report.regressions)
    | _ -> Alcotest.fail "merged ledger lacks a campaign result"));
  cleanup (out :: paths)

let () =
  Alcotest.run "shard"
    [ ( "partition",
        [ Alcotest.test_case "parse and render" `Quick test_parse;
          QCheck_alcotest.to_alcotest partition_prop ] );
      ( "merge",
        [ Alcotest.test_case "shard-then-merge is byte-identical" `Slow
            test_merge_identity;
          Alcotest.test_case "killed shard: refuse, resume, merge" `Slow
            test_kill_resume_merge;
          Alcotest.test_case "merge fails closed" `Slow
            test_merge_fail_closed;
          Alcotest.test_case "merged provenance and compare" `Slow
            test_merged_provenance ] ) ]
