(* Allocation-discipline regression tests.

   The campaign hot path runs short litmus executions back to back on a
   recycled per-domain simulator ([Sim.with_sim]).  The refactor's
   contract is twofold:

   - recycling is observably identical to creating a fresh device per
     run (checked here against an inline fresh-device runner);
   - a single run stays within a committed minor-heap budget, so a
     change that reintroduces per-run device creation (a 65k-word global
     memory array per run) or list-based pending queues fails loudly. *)

let chip = Gpusim.Chip.k20

let inst = { Litmus.Test.idiom = Litmus.Test.MP; distance = 8 }

(* The pre-arena runner: a fresh device per run, as [Litmus.Runner]
   used to do.  The oracle for recycling equivalence. *)
(* Mirrors [Litmus.Runner]'s device_words / litmus_max_ticks. *)
let run_once_fresh ~seed inst =
  let sim = Gpusim.Sim.create ~words:2048 ~chip ~seed () in
  let x = Gpusim.Sim.alloc sim (Litmus.Test.layout_words inst) in
  let out = Gpusim.Sim.alloc sim 2 in
  Gpusim.Sim.write sim out (-1);
  Gpusim.Sim.write sim (out + 1) (-1);
  let result =
    Gpusim.Sim.launch sim ~max_ticks:50_000 ~grid:2
      ~block:1 (Litmus.Test.kernel inst)
      ~args:[ ("x", x); ("out", out) ]
  in
  let r1 = Gpusim.Sim.read sim out in
  let r2 = Gpusim.Sim.read sim (out + 1) in
  let timed_out =
    match result.Gpusim.Sim.outcome with
    | Gpusim.Sim.Finished -> false
    | Gpusim.Sim.Timeout | Gpusim.Sim.Trapped _ -> true
  in
  (r1, r2, timed_out)

let test_recycled_equals_fresh () =
  for seed = 1 to 500 do
    let o = Litmus.Runner.run_once ~chip ~seed inst in
    let r1, r2, timed_out = run_once_fresh ~seed inst in
    if (o.r1, o.r2, o.timed_out) <> (r1, r2, timed_out) then
      Alcotest.failf
        "seed %d: recycled sim gave (%d,%d,%b), fresh sim gave (%d,%d,%b)"
        seed o.r1 o.r2 o.timed_out r1 r2 timed_out
  done

let test_reset_equals_create () =
  (* Directly: a reset device behaves like a fresh one, including under
     an environment that draws randomness (stress + randomisation). *)
  let env =
    Core.Environment.for_litmus
      (Core.Environment.sys_plus
         ~tuned:(Core.Tuning.shipped ~chip:Gpusim.Chip.k20))
  in
  for seed = 1 to 100 do
    let fresh = Gpusim.Sim.create ~words:2048 ~chip ~seed () in
    let recycled = Gpusim.Sim.create ~words:2048 ~chip ~seed:(seed + 999) () in
    (* Dirty the recycled device with a different run first. *)
    ignore
      (Gpusim.Sim.launch recycled ~grid:2 ~block:1
         (Litmus.Test.kernel inst)
         ~args:
           [ ("x", Gpusim.Sim.alloc recycled (Litmus.Test.layout_words inst));
             ("out", Gpusim.Sim.alloc recycled 2) ]);
    Gpusim.Sim.reset recycled ~seed;
    let run sim =
      Gpusim.Sim.set_environment sim env;
      let x = Gpusim.Sim.alloc sim (Litmus.Test.layout_words inst) in
      let out = Gpusim.Sim.alloc sim 2 in
      let r =
        Gpusim.Sim.launch sim ~grid:2 ~block:1 (Litmus.Test.kernel inst)
          ~args:[ ("x", x); ("out", out) ]
      in
      ( Gpusim.Sim.read sim out,
        Gpusim.Sim.read sim (out + 1),
        r.Gpusim.Sim.outcome = Gpusim.Sim.Finished,
        Gpusim.Sim.reorders sim )
    in
    let a = run fresh and b = run recycled in
    if a <> b then Alcotest.failf "seed %d: reset device diverged" seed
  done

(* One long-lived simulator, reset between runs, against a fresh one per
   run, over a seeded shuffle of launch shapes: the ten applications
   under sys-str+ (stress and randomised ids; barriers, shared memory,
   atomics, fences and pending loads) and MP, LB and SB litmus launches
   under the litmus sys-str+ at several distances.  Thread, block and
   register counts grow and shrink from one launch to the next, so a
   launch that re-arms its arena incompletely shows here. *)
type shape = App of Apps.App.t | Litmus of Litmus.Test.instance

let test_recycled_across_shapes () =
  let tuned = Core.Tuning.shipped ~chip in
  let app_env = Core.Environment.for_app (Core.Environment.sys_plus ~tuned) in
  let litmus_env =
    Core.Environment.for_litmus (Core.Environment.sys_plus ~tuned)
  in
  let litmus =
    List.concat_map
      (fun idiom ->
        List.map
          (fun distance -> Litmus { Litmus.Test.idiom; distance })
          [ 0; 8; 64 ])
      Litmus.Test.idioms
  in
  let shapes = List.map (fun a -> App a) Apps.Registry.all @ litmus in
  let shapes = Array.of_list (shapes @ shapes) in
  Gpusim.Rng.shuffle (Gpusim.Rng.create 11) shapes;
  let words = 65536 in
  let run sim = function
    | App app ->
      Gpusim.Sim.set_environment sim app_env;
      app.Apps.App.run sim Apps.App.Original
    | Litmus inst ->
      Gpusim.Sim.set_environment sim litmus_env;
      let x = Gpusim.Sim.alloc sim (Litmus.Test.layout_words inst) in
      let out = Gpusim.Sim.alloc sim 2 in
      Gpusim.Sim.fill sim ~base:out ~len:2 (-1);
      let r =
        Gpusim.Sim.launch sim ~max_ticks:50_000 ~shared_words:1 ~grid:2
          ~block:1 (Litmus.Test.kernel inst)
          ~args:[ ("x", x); ("out", out) ]
      in
      (match r.Gpusim.Sim.outcome with
      | Gpusim.Sim.Finished -> Ok ()
      | Gpusim.Sim.Timeout -> Error "timeout"
      | Gpusim.Sim.Trapped msg -> Error msg)
  in
  let observe sim shape =
    let result = run sim shape in
    ( result,
      Gpusim.Sim.reorders sim,
      Gpusim.Sim.elapsed_cycles sim,
      Gpusim.Sim.consumed_energy sim,
      Gpusim.Sim.read_array sim ~base:0 ~len:words )
  in
  let recycled = Gpusim.Sim.create ~words ~chip ~seed:0 () in
  Array.iteri
    (fun i shape ->
      let seed = 100 + i in
      Gpusim.Sim.reset recycled ~seed;
      let r1, n1, c1, e1, m1 = observe recycled shape in
      let r2, n2, c2, e2, m2 =
        observe (Gpusim.Sim.create ~words ~chip ~seed ()) shape
      in
      let name =
        match shape with
        | App a -> a.Apps.App.name
        | Litmus inst ->
          Printf.sprintf "%s at distance %d"
            (Litmus.Test.idiom_name inst.Litmus.Test.idiom)
            inst.Litmus.Test.distance
      in
      let check what ok =
        if not ok then
          Alcotest.failf "run %d (%s, seed %d): recycled sim's %s differs" i
            name seed what
      in
      check "result" (r1 = r2);
      check "reorders" (n1 = n2);
      check "elapsed cycles" (c1 = c2);
      check "energy" (Float.equal e1 e2);
      check "memory" (m1 = m2))
    shapes

(* The committed per-run minor-heap budget, in words.  Measured at 266
   words/run when the budget was last tightened (ring-buffer queues,
   recycled simulator, memoised kernel ASTs, compiled code cached per
   kernel with per-launch argument binding, one-word shared arrays for
   the shared-memory-free litmus kernels, unboxed rng state and register
   file, a launch arena re-armed in place); the ceiling is about 1.2x
   that, so per-launch thread records (about 30 words per thread with
   their contexts and arrays) or per-run kernel compilation (several
   hundred words) fail it. *)
let per_run_budget_words = 320.0

let batch_runs = 400

(* Minor words per call of [run] over seeds [1 .. runs], after warming
   the arena, kernel compilation paths and any memo tables so the
   measured window sees only steady-state per-run cost. *)
let minor_words_per_run ~runs run =
  for seed = 1 to 50 do
    run ~seed
  done;
  let before = Gc.minor_words () in
  for seed = 1 to runs do
    run ~seed
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let test_minor_words_budget () =
  let per_run =
    minor_words_per_run ~runs:batch_runs (fun ~seed ->
        ignore (Litmus.Runner.run_once ~chip ~seed inst))
  in
  Printf.printf "alloc: %.0f minor words/run (budget %.0f)\n%!" per_run
    per_run_budget_words;
  if per_run > per_run_budget_words then
    Alcotest.failf
      "per-run minor allocation %.0f words exceeds the committed budget of \
       %.0f words — did a hot path start allocating per run again?"
      per_run per_run_budget_words

(* The same budget for a stressed launch, the shape Sec. 3 tuning runs
   hundreds of thousands of times: K20 under the tuned sys-str+ litmus
   environment, MP at distance 64, two application threads plus the
   stressing blocks for a few hundred scheduler ticks.  Unlike the run
   above, the scheduler's tick loop dominates, so this budget is the one
   that catches per-tick allocation: a boxed rng draw, a closure or a
   tuple per step, or a float boxed by the contention arithmetic.
   Measured at 411 words per launch, down from 2,598 when each launch
   allocated its ~40 thread records, contexts and register arrays and
   boxed every register write, and from 14.5k with per-tick allocation.
   The ceiling is about 1.2x the measured figure: one boxed word pair on
   each of the launch's ~370 ticks, per-launch thread records, or a
   boxed register write on each stressing load exceeds it. *)
let stressed_budget_words = 490.0

let test_stressed_launch_budget () =
  let env =
    Core.Environment.for_litmus
      (Core.Environment.sys_plus ~tuned:(Core.Tuning.shipped ~chip))
  in
  let inst = { Litmus.Test.idiom = Litmus.Test.MP; distance = 64 } in
  let per_launch =
    minor_words_per_run ~runs:batch_runs (fun ~seed ->
        ignore (Litmus.Runner.run_once ~chip ~seed ~env inst))
  in
  Printf.printf "alloc: %.0f minor words/stressed launch (budget %.0f)\n%!"
    per_launch stressed_budget_words;
  if per_launch > stressed_budget_words then
    Alcotest.failf
      "stressed-launch minor allocation %.0f words exceeds the committed \
       budget of %.0f words — did the scheduler tick start allocating \
       again?"
      per_launch stressed_budget_words

(* A recycled device re-arms each thread context, so registers do not
   outlive a launch.  No shipped kernel reads a register before writing
   it, so this takes two kernels: one that leaves a value and a pending
   global load in its registers, then one that stores its registers
   before writing them.  The stores must read 0, as on a fresh device. *)
let test_arm_clears_registers () =
  let open Gpusim.Kernel in
  let kernel name params body =
    label { name; params; body = List.map stmt body }
  in
  let dirty =
    kernel "dirty" [ "x" ]
      [ Assign ("a", Int 7);
        Load { dst = "b"; space = Global; addr = Param "x" } ]
  in
  let reader =
    kernel "reader" [ "out" ]
      [ Store { space = Global; addr = Param "out"; value = Reg "a" };
        Store
          { space = Global; addr = Binop (Add, Param "out", Int 1);
            value = Reg "b" } ]
  in
  let launch sim k args =
    ignore (Gpusim.Sim.launch sim ~max_ticks:10_000 ~grid:1 ~block:1 k ~args)
  in
  let read_back sim =
    let out = Gpusim.Sim.alloc sim 2 in
    launch sim reader [ ("out", out) ];
    (Gpusim.Sim.read sim out, Gpusim.Sim.read sim (out + 1))
  in
  let sim = Gpusim.Sim.create ~words:2048 ~chip ~seed:1 () in
  let x = Gpusim.Sim.alloc sim 1 in
  Gpusim.Sim.write sim x 5;
  launch sim dirty [ ("x", x) ];
  Gpusim.Sim.reset sim ~seed:1;
  let fresh = read_back (Gpusim.Sim.create ~words:2048 ~chip ~seed:1 ()) in
  Alcotest.(check (pair int int)) "a fresh device reads zeroes" (0, 0) fresh;
  Alcotest.(check (pair int int)) "a recycled device reads zeroes" fresh
    (read_back sim)

let () =
  Alcotest.run "alloc"
    [ ( "allocation discipline",
        [ Alcotest.test_case "recycled sim = fresh sim" `Quick
            test_recycled_equals_fresh;
          Alcotest.test_case "reset = create under environment" `Quick
            test_reset_equals_create;
          Alcotest.test_case "recycled sim = fresh sim across launch shapes"
            `Quick test_recycled_across_shapes;
          Alcotest.test_case "minor-words budget per litmus run" `Quick
            test_minor_words_budget;
          Alcotest.test_case "minor-words budget per stressed launch" `Quick
            test_stressed_launch_budget;
          Alcotest.test_case "arm clears registers" `Quick
            test_arm_clears_registers ] ) ]
