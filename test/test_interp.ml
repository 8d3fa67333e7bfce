(* Interpreter semantics, checked on the sequentially consistent reference
   chip where results must be deterministic. *)

open Gpusim.Kbuild

let run1 ?(grid = 1) ?(block = 1) ?(shared_words = 64) k args =
  Test_util.run_sc ~grid ~block ~shared_words k args

let finished (r : Gpusim.Sim.result) =
  match r.Gpusim.Sim.outcome with
  | Gpusim.Sim.Finished -> true
  | Gpusim.Sim.Timeout | Gpusim.Sim.Trapped _ -> false

let test_arithmetic () =
  let k =
    kernel "arith" ~params:[ "out" ]
      [ def "a" (int 7);
        def "b" (int 3);
        store (param "out" + int 0) (reg "a" + reg "b");
        store (param "out" + int 1) (reg "a" - reg "b");
        store (param "out" + int 2) (reg "a" * reg "b");
        store (param "out" + int 3) (reg "a" / reg "b");
        store (param "out" + int 4) (reg "a" mod reg "b");
        store (param "out" + int 5) (min_ (reg "a") (reg "b"));
        store (param "out" + int 6) (max_ (reg "a") (reg "b"));
        store (param "out" + int 7) (not_ (int 0));
        store (param "out" + int 8) (reg "a" > reg "b");
        store (param "out" + int 9) (reg "a" <= reg "b") ]
  in
  let sim, r = run1 k [ ("out", 0) ] in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check (list int)) "results"
    [ 10; 4; 21; 2; 1; 3; 7; 1; 1; 0 ]
    (Array.to_list (Gpusim.Sim.read_array sim ~base:0 ~len:10))

let test_control_flow () =
  let k =
    kernel "ctrl" ~params:[ "out" ]
      [ def "sum" (int 0);
        def "i" (int 0);
        while_
          (reg "i" < int 10)
          [ when_ ((reg "i" mod int 2) = int 0) [ def "sum" (reg "sum" + reg "i") ];
            def "i" (reg "i" + int 1) ];
        if_ (reg "sum" = int 20)
          [ store (param "out") (int 111) ]
          [ store (param "out") (int 222) ] ]
  in
  let sim, _ = run1 k [ ("out", 0) ] in
  Alcotest.(check int) "sum of evens < 10" 111 (Gpusim.Sim.read sim 0)

let test_thread_ids () =
  let k =
    kernel "ids" ~params:[ "out" ]
      [ global_tid "g"; store (param "out" + reg "g") (tid + (int 100 * bid)) ]
  in
  let sim, _ = run1 ~grid:2 ~block:3 k [ ("out", 0) ] in
  Alcotest.(check (list int)) "tid and bid"
    [ 0; 1; 2; 100; 101; 102 ]
    (Array.to_list (Gpusim.Sim.read_array sim ~base:0 ~len:6))

let test_atomics () =
  let k =
    kernel "atomics" ~params:[ "out" ]
      [ atomic_add (param "out") (int 1);
        atomic_max (param "out" + int 1) tid;
        atomic_min (param "out" + int 2) (int 0 - tid) ]
  in
  let sim, _ = run1 ~block:8 k [ ("out", 0) ] in
  Alcotest.(check int) "atomicAdd counts threads" 8 (Gpusim.Sim.read sim 0);
  Alcotest.(check int) "atomicMax" 7 (Gpusim.Sim.read sim 1);
  Alcotest.(check int) "atomicMin" (-7) (Gpusim.Sim.read sim 2)

let test_cas_mutual_exclusion () =
  (* Classic lock-protected increment: must equal thread count even on a
     weak chip because the critical section is load-compute-store with a
     fence before unlock. *)
  let k =
    kernel "locked" ~params:[ "mutex"; "out" ]
      (lock (param "mutex")
      @ [ load "v" (param "out");
          store (param "out") (reg "v" + int 1);
          fence;
          unlock (param "mutex") ])
  in
  let sim = Test_util.fresh_sim ~chip:Gpusim.Chip.titan ~seed:11 () in
  let r = Gpusim.Sim.launch sim ~grid:4 ~block:2 k ~args:[ ("mutex", 0); ("out", 1) ] in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "all increments" 8 (Gpusim.Sim.read sim 1)

let test_barrier_orders_shared () =
  let k =
    kernel "bar" ~params:[ "out" ]
      [ store ~space:Gpusim.Kernel.Shared tid (tid * int 2);
        barrier;
        load ~space:Gpusim.Kernel.Shared "v" ((tid + int 1) mod bdim);
        store (param "out" + tid) (reg "v") ]
  in
  let sim, r = run1 ~block:4 k [ ("out", 0) ] in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check (list int)) "neighbour values"
    [ 2; 4; 6; 0 ]
    (Array.to_list (Gpusim.Sim.read_array sim ~base:0 ~len:4))

let test_barrier_divergence_detected () =
  let k =
    kernel "div" ~params:[]
      [ when_ (tid = int 0) [ return ]; barrier ]
  in
  let _, r = run1 ~block:4 k [] in
  Alcotest.(check bool) "divergence flagged" true r.Gpusim.Sim.barrier_divergence

let test_trap_division_by_zero () =
  let k = kernel "crash" ~params:[ "out" ] [ store (param "out") (int 1 / int 0) ] in
  let _, r = run1 k [ ("out", 0) ] in
  (match r.Gpusim.Sim.outcome with
  | Gpusim.Sim.Trapped msg ->
    Alcotest.(check bool) "mentions division" true
      (Test_util.contains msg "division")
  | Gpusim.Sim.Finished | Gpusim.Sim.Timeout ->
    Alcotest.fail "expected a trap")

let test_trap_out_of_bounds () =
  let k = kernel "oob" ~params:[] [ store (int (-3)) (int 1) ] in
  let _, r = run1 k [] in
  (match r.Gpusim.Sim.outcome with
  | Gpusim.Sim.Trapped _ -> ()
  | Gpusim.Sim.Finished | Gpusim.Sim.Timeout -> Alcotest.fail "expected a trap")

let test_timeout () =
  let k = kernel "spin" ~params:[] [ while_ (int 1) [ def "x" (int 0) ] ] in
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.sequential ~seed:1 () in
  let r = Gpusim.Sim.launch sim ~max_ticks:500 ~grid:1 ~block:1 k ~args:[] in
  (match r.Gpusim.Sim.outcome with
  | Gpusim.Sim.Timeout -> ()
  | Gpusim.Sim.Finished | Gpusim.Sim.Trapped _ ->
    Alcotest.fail "expected a timeout")

let test_rand_bounds () =
  let k =
    kernel "rand" ~params:[ "out" ]
      [ def "i" (int 0);
        while_
          (reg "i" < int 50)
          [ def "r" (Gpusim.Kernel.Rand (int 10));
            when_ ((reg "r" < int 0) || (reg "r" >= int 10))
              [ store (param "out") (int 1) ];
            def "i" (reg "i" + int 1) ] ]
  in
  let sim, _ = run1 k [ ("out", 0) ] in
  Alcotest.(check int) "never out of bounds" 0 (Gpusim.Sim.read sim 0)

let test_missing_arg_rejected () =
  let k = kernel "p" ~params:[ "a" ] [ def "x" (param "a") ] in
  Alcotest.check_raises "missing argument"
    (Invalid_argument
       "Code.compile p: parameters (a) do not match arguments ()")
    (fun () -> ignore (Gpusim.Code.bind (Gpusim.Code.compile k) []))

let test_params_bind_per_launch () =
  (* One kernel value launched twice on one device: the second launch
     hits the compiled-code cache, and must still write through its own
     arguments, given in another order. *)
  let k =
    kernel "two" ~params:[ "out"; "v" ]
      [ store (param "out") (param "v");
        store (param "out" + int 1) (param "v" + int 1) ]
  in
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.sequential ~seed:1 () in
  let launch args =
    Alcotest.(check bool) "finished" true
      (finished (Gpusim.Sim.launch sim ~grid:1 ~block:1 k ~args))
  in
  launch [ ("out", 0); ("v", 5) ];
  launch [ ("v", 7); ("out", 10) ];
  Alcotest.(check (list int)) "first launch's words" [ 5; 6 ]
    (Array.to_list (Gpusim.Sim.read_array sim ~base:0 ~len:2));
  Alcotest.(check (list int)) "second launch's words" [ 7; 8 ]
    (Array.to_list (Gpusim.Sim.read_array sim ~base:10 ~len:2))

let test_randomisation_preserves_results () =
  (* A data-parallel kernel must compute the same result with thread-id
     randomisation on: logical ids are permuted, not changed. *)
  let k =
    kernel "sq" ~params:[ "out" ]
      [ global_tid "g"; store (param "out" + reg "g") (reg "g" * reg "g") ]
  in
  let env =
    { Gpusim.Sim.randomise = true;
      make_stress = (fun _ ~app_grid:_ ~app_block:_ -> None) }
  in
  let sim = Test_util.fresh_sim ~chip:Gpusim.Chip.titan ~env ~seed:3 () in
  let r = Gpusim.Sim.launch sim ~grid:4 ~block:8 k ~args:[ ("out", 0) ] in
  Alcotest.(check bool) "finished" true (finished r);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "out[%d]" i) (Stdlib.( * ) i i) v)
    (Gpusim.Sim.read_array sim ~base:0 ~len:32)

let () =
  Alcotest.run "interp"
    [ ( "semantics",
        [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "thread ids" `Quick test_thread_ids;
          Alcotest.test_case "atomics" `Quick test_atomics;
          Alcotest.test_case "spinlock mutual exclusion" `Quick
            test_cas_mutual_exclusion;
          Alcotest.test_case "barrier orders shared memory" `Quick
            test_barrier_orders_shared;
          Alcotest.test_case "barrier divergence" `Quick
            test_barrier_divergence_detected;
          Alcotest.test_case "trap: division by zero" `Quick
            test_trap_division_by_zero;
          Alcotest.test_case "trap: out of bounds" `Quick
            test_trap_out_of_bounds;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "rand bounds" `Quick test_rand_bounds;
          Alcotest.test_case "missing argument" `Quick
            test_missing_arg_rejected;
          Alcotest.test_case "parameters bind per launch" `Quick
            test_params_bind_per_launch;
          Alcotest.test_case "randomisation preserves results" `Quick
            test_randomisation_preserves_results ] ) ]
