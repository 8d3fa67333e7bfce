(* Experiment budgets: the paper's published parameters and the scaling
   invariants behind --runs-scale. *)

let test_paper_parameters () =
  let b = Core.Budget.paper in
  Alcotest.(check int) "C = 1000 executions per point (Sec. 3)" 1000
    b.Core.Budget.runs_patch;
  Alcotest.(check int) "sequence finding uses the same C" 1000
    b.Core.Budget.runs_seq;
  Alcotest.(check int) "spread finding uses the same C" 1000
    b.Core.Budget.runs_spread;
  Alcotest.(check int) "L = 256 scratchpad locations" 256
    b.Core.Budget.max_location;
  Alcotest.(check int) "exhaustive location sampling" 1
    b.Core.Budget.location_stride;
  Alcotest.(check int) "N = 5 max sequence length" 5 b.Core.Budget.seq_max_len;
  Alcotest.(check int) "M = 64 max spread" 64 b.Core.Budget.max_spread;
  Alcotest.(check int) "epsilon = 3 noise threshold" 3
    b.Core.Budget.noise_threshold;
  Alcotest.(check int) "all 256 distances sampled" 256
    (List.length b.Core.Budget.distances_patch)

let test_scale_runs_scales_counts () =
  let b = Core.Budget.default in
  let half = Core.Budget.scale_runs b 0.5 in
  Alcotest.(check int) "patch runs halved" (b.Core.Budget.runs_patch / 2)
    half.Core.Budget.runs_patch;
  Alcotest.(check int) "seq runs halved" (b.Core.Budget.runs_seq / 2)
    half.Core.Budget.runs_seq;
  Alcotest.(check int) "spread runs halved" (b.Core.Budget.runs_spread / 2)
    half.Core.Budget.runs_spread;
  (* Grid shape is untouched: scaling trades confidence, not coverage. *)
  Alcotest.(check int) "locations unchanged" b.Core.Budget.max_location
    half.Core.Budget.max_location;
  Alcotest.(check (list int)) "distances unchanged"
    b.Core.Budget.distances_patch half.Core.Budget.distances_patch;
  Alcotest.(check int) "spread unchanged" b.Core.Budget.max_spread
    half.Core.Budget.max_spread

let test_scale_runs_floors_at_one () =
  let tiny = Core.Budget.scale_runs Core.Budget.default 1e-9 in
  Alcotest.(check int) "patch runs floor" 1 tiny.Core.Budget.runs_patch;
  Alcotest.(check int) "seq runs floor" 1 tiny.Core.Budget.runs_seq;
  Alcotest.(check int) "spread runs floor" 1 tiny.Core.Budget.runs_spread;
  Alcotest.(check bool) "threshold stays positive" true
    (tiny.Core.Budget.noise_threshold >= 1)

(* A scale that is not finite and positive would floor every count at
   one run instead of failing. *)
let test_scale_runs_refuses () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "scale %g refused" f) true
        (match Core.Budget.scale_runs Core.Budget.default f with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; -1.0 ]

let test_scale_runs_identity () =
  let b = Core.Budget.default in
  Alcotest.(check bool) "factor 1.0 is the identity" true
    (Core.Budget.scale_runs b 1.0 = b)

let test_noise_threshold_tracks_runs () =
  (* epsilon keeps the same weak-behaviour *rate* as the paper's
     epsilon=3 at C=1000. *)
  let eps factor =
    (Core.Budget.scale_runs Core.Budget.paper factor).Core.Budget
      .noise_threshold
  in
  Alcotest.(check int) "paper scale keeps epsilon ~3" 4 (eps 1.0);
  (* eps_for 1000 = 3*1000/1000+1 = 4; the shipped paper budget pins 3,
     re-derivation is within one. *)
  Alcotest.(check bool) "monotone in runs" true (eps 2.0 >= eps 0.1);
  Alcotest.(check int) "never below one" 1 (eps 1e-9)

let test_quick_no_larger_than_default () =
  let q = Core.Budget.quick and d = Core.Budget.default in
  Alcotest.(check bool) "quick runs <= default runs" true
    (q.Core.Budget.runs_patch <= d.Core.Budget.runs_patch
    && q.Core.Budget.runs_seq <= d.Core.Budget.runs_seq
    && q.Core.Budget.runs_spread <= d.Core.Budget.runs_spread);
  Alcotest.(check bool) "quick grids <= default grids" true
    (List.length q.Core.Budget.distances_patch
     <= List.length d.Core.Budget.distances_patch
    && q.Core.Budget.max_spread <= d.Core.Budget.max_spread
    && q.Core.Budget.seq_max_len <= d.Core.Budget.seq_max_len)

let () =
  Alcotest.run "budget"
    [ ( "budgets",
        [ Alcotest.test_case "paper parameters" `Quick test_paper_parameters;
          Alcotest.test_case "scale_runs scales counts" `Quick
            test_scale_runs_scales_counts;
          Alcotest.test_case "scale_runs floors at one" `Quick
            test_scale_runs_floors_at_one;
          Alcotest.test_case "scale_runs refuses non-positive and non-finite"
            `Quick test_scale_runs_refuses;
          Alcotest.test_case "scale_runs identity" `Quick
            test_scale_runs_identity;
          Alcotest.test_case "noise threshold tracks runs" `Quick
            test_noise_threshold_tracks_runs;
          Alcotest.test_case "quick <= default" `Quick
            test_quick_no_larger_than_default ] ) ]
