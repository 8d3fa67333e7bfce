(* Report formatting: each table/figure renders and carries its key
   content. *)

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_table1 () =
  let s = render Core.Report.table1 in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("table 1 mentions " ^ frag) true
        (Test_util.contains s frag))
    [ "GTX 980"; "Tesla K20"; "Fermi"; "Kepler"; "Maxwell"; "2010" ]

let test_table4 () =
  let s = render Core.Report.table4 in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("table 4 mentions " ^ frag) true
        (Test_util.contains s frag))
    [ "cbe-dot"; "ls-bh-nf"; "CUDA by Example"; "post-condition" ]

let test_table5 () =
  let row =
    { Core.Campaign.chip = "K20"; environment = "sys-str+";
      cells =
        [ { Core.Campaign.app = "cbe-dot"; errors = 10; runs = 40;
            example = "x";
            histogram = [ ("x", 7); ("y", 3) ]; quarantined = None } ];
      capable = 1; effective = 1 }
  in
  let s = render (fun ppf -> Core.Report.table5 ppf [ row ]) in
  Alcotest.(check bool) "has the a/b cell" true (Test_util.contains s "1 / 1");
  Alcotest.(check bool) "has the chip" true (Test_util.contains s "K20")

let test_table6 () =
  let r =
    { Core.Harden.app = "cbe-dot"; chip = "K20"; initial = 7;
      fences = [ ("dot", 24) ]; converged = true; rounds = 1; checks = 9;
      elapsed_s = 12.0 }
  in
  let s = render (fun ppf -> Core.Report.table6 ppf [ r ]) in
  Alcotest.(check bool) "initial count" true (Test_util.contains s "7");
  Alcotest.(check bool) "fence site" true (Test_util.contains s "dot:s24")

let test_figure5_and_csv () =
  let m r e = { Core.Cost.runtime = r; energy = e; discarded = 0 } in
  let p =
    { Core.Cost.chip = "K20"; app = "cbe-dot"; nvml = true;
      no_fences = m 100. 50.; emp = m 103. 51.; cons = m 250. 120.;
      emp_count = 1 }
  in
  let s = render (fun ppf -> Core.Report.figure5 ppf [ p ]) in
  Alcotest.(check bool) "medians present" true (Test_util.contains s "medians");
  let csv = Core.Report.cost_csv [ p ] in
  Alcotest.(check bool) "csv header" true
    (Test_util.contains csv "chip,app,nvml");
  Alcotest.(check bool) "csv row" true (Test_util.contains csv "K20,cbe-dot")

let test_figure3_and_csv () =
  let r =
    { Core.Patch_finder.cells =
        [ { Core.Patch_finder.idiom = Litmus.Test.MP; distance = 0;
            location = 0; weak = 5 };
          { Core.Patch_finder.idiom = Litmus.Test.MP; distance = 0;
            location = 8; weak = 0 } ];
      runs = 40;
      per_idiom = [ (Litmus.Test.MP, Some 32) ];
      critical = Some 32; chosen = 32 }
  in
  let s = render (fun ppf -> Core.Report.figure3 ppf ~chip:"Titan" r) in
  Alcotest.(check bool) "chip named" true (Test_util.contains s "Titan");
  Alcotest.(check bool) "patch size" true
    (Test_util.contains s "critical patch size: 32");
  let r2 =
    { r with
      Core.Patch_finder.cells =
        [ { Core.Patch_finder.idiom = Litmus.Test.LB; distance = 64;
            location = 16; weak = 2 } ] }
  in
  let csv = Core.Report.patches_csv [ ("Titan", r); ("C2075", r2) ] in
  Alcotest.(check bool) "first chip's rows" true
    (Test_util.contains csv "Titan,MP,0,0,5");
  Alcotest.(check bool) "second chip's rows" true
    (Test_util.contains csv "C2075,LB,64,16,2")

let test_figure4_and_csv () =
  let r =
    { Core.Spread_finder.points =
        [ { Core.Spread_finder.spread = 1;
            scores = List.map (fun i -> (i, 3)) Litmus.Test.idioms };
          { Core.Spread_finder.spread = 2;
            scores = List.map (fun i -> (i, 9)) Litmus.Test.idioms } ];
      winner = 2;
      sequence = [ Core.Access_seq.Ld; Core.Access_seq.St ];
      patch = 32 }
  in
  let s = render (fun ppf -> Core.Report.figure4 ppf ~chip:"980" r) in
  Alcotest.(check bool) "winner shown" true
    (Test_util.contains s "most effective spread: 2");
  let r2 =
    { r with
      Core.Spread_finder.points =
        [ { Core.Spread_finder.spread = 4;
            scores = List.map (fun i -> (i, 1)) Litmus.Test.idioms } ] }
  in
  let csv = Core.Report.spreads_csv [ ("980", r); ("K20", r2) ] in
  Alcotest.(check bool) "first chip's rows" true
    (Test_util.contains csv "980,2,MP,9");
  Alcotest.(check bool) "second chip's rows" true
    (Test_util.contains csv "K20,4,MP,1")

(* ------------------------------------------------------------------ *)
(* Golden renderings and ledger comparison                             *)

let cell app errors runs histogram =
  { Core.Campaign.app; errors; runs;
    example = (match histogram with (m, _) :: _ -> m | [] -> "");
    histogram; quarantined = None }

let golden_rows =
  [ { Core.Campaign.chip = "K20"; environment = "no-str-";
      cells =
        [ cell "cbe-dot" 0 40 [];
          cell "sdk-red" 1 40 [ ("race in reduce", 1) ] ];
      capable = 1; effective = 0 };
    { Core.Campaign.chip = "K20"; environment = "sys-str+";
      cells =
        [ cell "cbe-dot" 10 40 [ ("dot mismatch", 7); ("timeout", 3) ];
          cell "sdk-red" 0 40 [] ];
      capable = 1; effective = 1 } ]

let golden_harden =
  [ { Core.Harden.app = "cbe-dot"; chip = "K20"; initial = 7;
      fences = [ ("dot", 24) ]; converged = true; rounds = 1; checks = 9;
      elapsed_s = 0.0 };
    { Core.Harden.app = "ls-bh-nf"; chip = "Titan"; initial = 12;
      fences = [ ("force", 3); ("update", 8) ]; converged = false;
      rounds = 4; checks = 31; elapsed_s = 0.0 } ]

(* Byte-exact goldens: ledger-backed reports (gpuwmm report --from) must
   keep reproducing the live drivers' output, so renderer changes must be
   deliberate. *)

let test_table5_golden () =
  Alcotest.(check string) "table5 ascii"
    "Table 5: effectiveness of the testing environments (a / b, where b \
     = apps with errors,\n\
    \         a = apps with error rate over 5%)\n\
     ------------------------------\n\
     chip    no-str-    sys-str+   \n\
     ------------------------------\n\
     K20     0 / 1      1 / 1      \n\
     dominant failure modes (errors summed over all cells):\n\
    \  K20      dot mismatch (x7)\n"
    (render (fun ppf -> Core.Report.table5 ppf golden_rows))

let test_table5_csv_golden () =
  Alcotest.(check string) "table5 csv"
    "chip,environment,app,errors,runs,rate,dominant\n\
     K20,no-str-,cbe-dot,0,40,0.0000,\n\
     K20,no-str-,sdk-red,1,40,0.0250,race in reduce\n\
     K20,sys-str+,cbe-dot,10,40,0.2500,dot mismatch\n\
     K20,sys-str+,sdk-red,0,40,0.0000,\n"
    (Core.Report.table5_csv golden_rows);
  (* Commas inside failure messages must not add CSV columns. *)
  let rows =
    [ { (List.hd golden_rows) with
        Core.Campaign.cells = [ cell "x" 1 2 [ ("a, b", 1) ] ] } ]
  in
  Alcotest.(check bool) "commas in messages become semicolons" true
    (Test_util.contains (Core.Report.table5_csv rows) "a; b")

let test_table5_md_golden () =
  Alcotest.(check string) "table5 markdown"
    "Table 5: effectiveness of the testing environments (a / b; b = apps \
     with errors, a = apps with error rate over 5%)\n\n\
     | chip | no-str- | sys-str+ |\n\
     |---|---|---|\n\
     | K20 | 0 / 1 | 1 / 1 |\n"
    (Core.Report.table5_md golden_rows)

let test_table6_golden () =
  Alcotest.(check string) "table6 ascii"
    "Table 6: empirical fence insertion results\n\
     ----------------------------------------------------------------------------\n\
     app          init.  red. (ref chip) agreeing  converged  time (mins)\n\
     ----------------------------------------------------------------------------\n\
     cbe-dot      7      1              0         true       0.00\n\
    \               fences: dot:s24\n\
     ls-bh-nf     12     2              0         false      0.00\n\
    \               fences: force:s3, update:s8\n"
    (render (fun ppf -> Core.Report.table6 ppf golden_harden))

let test_table6_csv_golden () =
  Alcotest.(check string) "table6 csv"
    "app,chip,initial,fences,fence_sites,converged,rounds,checks\n\
     cbe-dot,K20,7,1,dot:s24,true,1,9\n\
     ls-bh-nf,Titan,12,2,force:s3;update:s8,false,4,31\n"
    (Core.Report.table6_csv golden_harden)

let test_provenance_stamp () =
  let h =
    { Core.Runlog.schema = 1; campaign = "test"; argv = [ "gpuwmm"; "test" ];
      seed = 7; jobs = 4; grid = Core.Json.Null; git = Some "abc123";
      created = 0.0; shard = None; merged = None }
  in
  let s =
    render (fun ppf -> Core.Report.provenance ppf ~path:"runs/a.jsonl" h)
  in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("provenance mentions " ^ frag) true
        (Test_util.contains s frag))
    [ "runs/a.jsonl"; "campaign test"; "seed 7"; "abc123"; "gpuwmm test" ];
  (* Every line is '#'-prefixed so the stamp is valid atop CSV output. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is a comment" true
        (line = "" || line.[0] = '#'))
    (String.split_on_char '\n' s)

let test_compare_campaigns () =
  let equal =
    Core.Report.compare_campaigns ~tolerance:0.0 ~baseline:golden_rows
      ~candidate:golden_rows
  in
  Alcotest.(check bool) "identical ledgers do not differ" true
    (equal.Core.Report.regressions = []
    && equal.Core.Report.improvements = []
    && equal.Core.Report.notes = []);
  (* Candidate exposes fewer errors -> regression; the vanished failure
     mode is noted. *)
  let weaker =
    List.map
      (fun row ->
        { row with
          Core.Campaign.cells =
            List.map
              (fun c ->
                if c.Core.Campaign.app = "cbe-dot" then
                  { c with
                    Core.Campaign.errors = 0;
                    histogram = [] }
                else c)
              row.Core.Campaign.cells })
      golden_rows
  in
  let r =
    Core.Report.compare_campaigns ~tolerance:0.02 ~baseline:golden_rows
      ~candidate:weaker
  in
  Alcotest.(check int) "one cell regressed beyond tolerance" 1
    (List.length r.Core.Report.regressions);
  Alcotest.(check bool) "regression names the cell" true
    (List.exists
       (fun m -> Test_util.contains m "cbe-dot")
       r.Core.Report.regressions);
  Alcotest.(check bool) "vanished failure mode noted" true
    (List.exists
       (fun m -> Test_util.contains m "dot mismatch")
       r.Core.Report.notes);
  (* The reverse direction is an improvement, not a regression. *)
  let better =
    Core.Report.compare_campaigns ~tolerance:0.02 ~baseline:weaker
      ~candidate:golden_rows
  in
  Alcotest.(check int) "no regressions on improvement" 0
    (List.length better.Core.Report.regressions);
  Alcotest.(check bool) "improvement recorded" true
    (better.Core.Report.improvements <> []);
  (* A row missing from the candidate is always a regression. *)
  let missing =
    Core.Report.compare_campaigns ~tolerance:0.02 ~baseline:golden_rows
      ~candidate:[ List.hd golden_rows ]
  in
  Alcotest.(check bool) "missing row is a regression" true
    (missing.Core.Report.regressions <> [])

let test_compare_tolerance () =
  (* A drop within the tolerance is not flagged. *)
  let drop =
    List.map
      (fun row ->
        { row with
          Core.Campaign.cells =
            List.map
              (fun c ->
                if c.Core.Campaign.errors = 10 then
                  { c with Core.Campaign.errors = 9 }
                else c)
              row.Core.Campaign.cells })
      golden_rows
  in
  let within =
    Core.Report.compare_campaigns ~tolerance:0.05 ~baseline:golden_rows
      ~candidate:drop
  in
  Alcotest.(check int) "2.5%% drop within 5%% tolerance" 0
    (List.length within.Core.Report.regressions);
  let beyond =
    Core.Report.compare_campaigns ~tolerance:0.01 ~baseline:golden_rows
      ~candidate:drop
  in
  Alcotest.(check int) "2.5%% drop beyond 1%% tolerance" 1
    (List.length beyond.Core.Report.regressions)

(* Every comparison with [nan] is false, so a [nan] tolerance would pass
   any drop. *)
let test_compare_refuses_tolerance () =
  List.iter
    (fun tolerance ->
      Alcotest.(check bool) (Printf.sprintf "tolerance %g refused" tolerance)
        true
        (match
           Core.Report.compare_campaigns ~tolerance ~baseline:golden_rows
             ~candidate:golden_rows
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity; -0.01 ]

let () =
  Alcotest.run "report"
    [ ( "render",
        [ Alcotest.test_case "table 1" `Quick test_table1;
          Alcotest.test_case "table 4" `Quick test_table4;
          Alcotest.test_case "table 5" `Quick test_table5;
          Alcotest.test_case "table 6" `Quick test_table6;
          Alcotest.test_case "figure 3" `Quick test_figure3_and_csv;
          Alcotest.test_case "figure 4" `Quick test_figure4_and_csv;
          Alcotest.test_case "figure 5" `Quick test_figure5_and_csv ] );
      ( "golden",
        [ Alcotest.test_case "table 5 ascii" `Quick test_table5_golden;
          Alcotest.test_case "table 5 csv" `Quick test_table5_csv_golden;
          Alcotest.test_case "table 5 markdown" `Quick test_table5_md_golden;
          Alcotest.test_case "table 6 ascii" `Quick test_table6_golden;
          Alcotest.test_case "table 6 csv" `Quick test_table6_csv_golden;
          Alcotest.test_case "provenance stamp" `Quick
            test_provenance_stamp ] );
      ( "compare",
        [ Alcotest.test_case "regressions and notes" `Quick
            test_compare_campaigns;
          Alcotest.test_case "tolerance" `Quick test_compare_tolerance;
          Alcotest.test_case "non-finite or negative tolerance refused" `Quick
            test_compare_refuses_tolerance ] ) ]
