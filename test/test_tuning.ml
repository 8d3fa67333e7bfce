(* The tuning pipeline: ε-patch extraction on synthetic data, plus a tiny
   end-to-end campaign on the quick budget. *)

let test_patch_row_solid () =
  (* Eight contiguous samples at stride 8 above threshold = 64 words. *)
  let row = List.init 8 (fun i -> (64 + (8 * i), 10)) in
  Alcotest.(check (list int)) "one 64-word patch" [ 64 ]
    (Core.Patch_finder.patch_sizes_of_row ~eps:3 ~stride:8 row)

let test_patch_row_split () =
  let row =
    [ (0, 9); (8, 9); (16, 0); (24, 9); (32, 9); (40, 9); (48, 0) ]
  in
  Alcotest.(check (list int)) "two patches: 16 and 24 words" [ 24; 16 ]
    (Core.Patch_finder.patch_sizes_of_row ~eps:3 ~stride:8 row)

let test_patch_row_singleton_dropped () =
  (* A lone above-threshold sample cannot resolve a width at stride > 1. *)
  let row = [ (0, 0); (8, 9); (16, 0) ] in
  Alcotest.(check (list int)) "noise dropped" []
    (Core.Patch_finder.patch_sizes_of_row ~eps:3 ~stride:8 row)

let test_patch_row_threshold () =
  let row = [ (0, 3); (8, 3); (16, 3) ] in
  Alcotest.(check (list int)) "at threshold is not above it" []
    (Core.Patch_finder.patch_sizes_of_row ~eps:3 ~stride:8 row)

let test_patch_row_stride_one () =
  let row = [ (0, 9); (1, 9); (2, 0); (3, 9) ] in
  Alcotest.(check (list int)) "unit stride keeps singletons" [ 1; 2 ]
    (Core.Patch_finder.patch_sizes_of_row ~eps:3 ~stride:1 row)

let test_budget_scaling () =
  let b = Core.Budget.scale_runs Core.Budget.default 2.0 in
  Alcotest.(check int) "runs doubled"
    (2 * Core.Budget.default.Core.Budget.runs_patch)
    b.Core.Budget.runs_patch;
  let p = Core.Budget.paper in
  Alcotest.(check int) "paper C" 1000 p.Core.Budget.runs_patch;
  Alcotest.(check int) "paper L" 256 p.Core.Budget.max_location;
  Alcotest.(check int) "paper N" 5 p.Core.Budget.seq_max_len;
  Alcotest.(check int) "paper M" 64 p.Core.Budget.max_spread;
  Alcotest.(check int) "paper eps" 3 p.Core.Budget.noise_threshold

let test_shipped_table2 () =
  List.iter
    (fun chip ->
      let tuned = Core.Tuning.shipped ~chip in
      Alcotest.(check int)
        (chip.Gpusim.Chip.name ^ " spread is 2")
        2 tuned.Core.Stress.spread;
      let s = Core.Access_seq.to_string tuned.Core.Stress.sequence in
      let expected =
        match chip.Gpusim.Chip.name with
        | "980" -> "ld4 st"
        | "K5200" -> "ld3 st ld"
        | "Titan" | "K20" -> "ld st2 ld"
        | "770" -> "st2 ld2"
        | _ -> "ld st"
      in
      Alcotest.(check string) (chip.Gpusim.Chip.name ^ " sequence") expected s)
    Gpusim.Chip.all

let test_shipped_unknown_chip_warns () =
  (* Count warnings through a scratch reporter: a chip outside Table 2
     must fall back loudly, a Table 2 chip silently. *)
  let warnings = ref 0 in
  let saved = Logs.reporter () in
  let counting =
    { Logs.report =
        (fun _src level ~over k msgf ->
          if level = Logs.Warning then incr warnings;
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.ikfprintf (fun _ -> over (); k ()) Format.std_formatter
                fmt)) }
  in
  Logs.set_reporter counting;
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () -> Logs.set_reporter saved)
    (fun () ->
      ignore (Core.Tuning.shipped ~chip:Gpusim.Chip.k20);
      Alcotest.(check int) "known chip is silent" 0 !warnings;
      let fake = { Gpusim.Chip.k20 with Gpusim.Chip.name = "K21-typo" } in
      let tuned = Core.Tuning.shipped ~chip:fake in
      Alcotest.(check int) "unknown chip warns once" 1 !warnings;
      Alcotest.(check string) "and falls back to the untuned sequence"
        "ld st"
        (Core.Access_seq.to_string tuned.Core.Stress.sequence))

let test_quick_pipeline_runs () =
  (* End-to-end smoke on the quick budget: structure, not statistics. *)
  let r =
    Core.Tuning.run ~chip:Gpusim.Chip.titan ~seed:2 ~budget:Core.Budget.quick ()
  in
  Alcotest.(check bool) "patch size positive" true
    (r.Core.Tuning.patch.Core.Patch_finder.chosen > 0);
  Alcotest.(check bool) "winner non-empty" true
    (Core.Access_seq.length r.Core.Tuning.sequences.Core.Seq_finder.winner > 0);
  Alcotest.(check bool) "spread in range" true
    (r.Core.Tuning.spreads.Core.Spread_finder.winner >= 1
    && r.Core.Tuning.spreads.Core.Spread_finder.winner
       <= Core.Budget.quick.Core.Budget.max_spread);
  let table = r.Core.Tuning.sequences.Core.Seq_finder.table in
  Alcotest.(check int) "all sequences scored"
    (List.length (Core.Access_seq.all ~max_len:Core.Budget.quick.Core.Budget.seq_max_len))
    (List.length table)

let test_seq_rank_layout () =
  let r =
    Core.Seq_finder.run ~chip:Gpusim.Chip.titan ~seed:3
      ~budget:Core.Budget.quick ~patch:32 ()
  in
  List.iter
    (fun idiom ->
      let rows = Core.Seq_finder.rank_for r idiom in
      let ranks = List.map (fun (rank, _, _) -> rank) rows in
      Alcotest.(check (list int)) "ranks are 1..n"
        (List.init (List.length rows) (fun i -> i + 1))
        ranks;
      let scores = List.map (fun (_, _, s) -> s) rows in
      Alcotest.(check bool) "descending" true
        (List.sort (fun a b -> compare b a) scores = scores))
    Litmus.Test.idioms

let () =
  Alcotest.run "tuning"
    [ ( "patch extraction",
        [ Alcotest.test_case "solid row" `Quick test_patch_row_solid;
          Alcotest.test_case "split row" `Quick test_patch_row_split;
          Alcotest.test_case "singleton dropped" `Quick
            test_patch_row_singleton_dropped;
          Alcotest.test_case "threshold strict" `Quick test_patch_row_threshold;
          Alcotest.test_case "stride one" `Quick test_patch_row_stride_one ] );
      ( "budgets and defaults",
        [ Alcotest.test_case "scaling" `Quick test_budget_scaling;
          Alcotest.test_case "shipped Table 2" `Quick test_shipped_table2;
          Alcotest.test_case "unknown chip warns" `Quick
            test_shipped_unknown_chip_warns ] );
      ( "pipeline",
        [ Alcotest.test_case "quick pipeline" `Slow test_quick_pipeline_runs;
          Alcotest.test_case "rank layout" `Slow test_seq_rank_layout ] ) ]
