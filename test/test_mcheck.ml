(* The bounded model checker and its campaign-facing front end:
   verdicts against the SC oracle, DPOR pruning, witness replay, zero
   divisors on all three machines, determinism of case-level jobs,
   golden reports and campaign cross-validation. *)

module M = Gpusim.Mcheck

let k20 = Gpusim.Chip.k20

let state_list =
  Alcotest.testable
    (fun ppf (s : Gpusim.Sc_ref.state) ->
      Fmt.pf ppf "mem=%a regs=%a"
        Fmt.(list ~sep:sp (pair ~sep:comma int int))
        s.memory
        Fmt.(list ~sep:sp (fun ppf (t, r, v) -> Fmt.pf ppf "%d.%s=%d" t r v))
        s.registers)
    ( = )
  |> Alcotest.list

let reachable_states (r : M.result) =
  List.map (fun (w : M.witness) -> w.M.state) r.M.reachable

(* ------------------------------------------------------------------ *)
(* Verdicts on the litmus idioms                                        *)

let check_inst ?(fenced = false) ?(k = 2) ?(dpor = true) inst =
  M.check ~chip:k20 ~max_reorderings:k ~dpor
    (Core.Check.litmus_program inst ~fenced)

let test_fenced_proved_sc () =
  (* Fully fenced MP/LB/SB at a cross-partition distance: the checker must
     prove the absence of weak behaviour. *)
  List.iter
    (fun idiom ->
      let inst = { Litmus.Test.idiom; distance = 31 } in
      match (check_inst ~fenced:true inst).M.verdict with
      | M.Proved_sc -> ()
      | M.Weak ws ->
        Alcotest.failf "%s fenced: %d weak state(s) found"
          (Litmus.Test.idiom_name idiom)
          (List.length ws))
    Litmus.Test.idioms

let test_unfenced_weak_witnessed () =
  (* Unfenced at a cross-partition distance: exactly the idiom's weak
     outcome appears, with a non-trivial witness schedule. *)
  List.iter
    (fun idiom ->
      let inst = { Litmus.Test.idiom; distance = 31 } in
      match (check_inst inst).M.verdict with
      | M.Proved_sc ->
        Alcotest.failf "%s unfenced: expected weak behaviour"
          (Litmus.Test.idiom_name idiom)
      | M.Weak ws ->
        List.iter
          (fun (w : M.witness) ->
            let r1, r2 = Core.Check.outcome w.M.state in
            Alcotest.(check bool)
              (Printf.sprintf "%s (%d,%d) is the designated weak outcome"
                 (Litmus.Test.idiom_name idiom) r1 r2)
              true
              (Litmus.Test.weak inst ~r1 ~r2);
            Alcotest.(check bool) "witness actually reorders" true
              (w.M.reorders > 0))
          ws)
    Litmus.Test.idioms

let test_same_partition_proved_sc () =
  (* d = 0 keeps both locations in one partition: FIFO commit order makes
     even the unfenced programs SC — the "no weak behaviour below the
     critical patch size" fact, now as a proof instead of 0 observations. *)
  List.iter
    (fun idiom ->
      let inst = { Litmus.Test.idiom; distance = 0 } in
      match (check_inst inst).M.verdict with
      | M.Proved_sc -> ()
      | M.Weak _ ->
        Alcotest.failf "%s d=0: weak behaviour inside one partition"
          (Litmus.Test.idiom_name idiom))
    Litmus.Test.idioms

let test_zero_bound_is_sc () =
  (* k = 0 forbids every reordering, so the reachable set collapses to the
     SC oracle's. *)
  let inst = { Litmus.Test.idiom = Litmus.Test.MP; distance = 31 } in
  let r = check_inst ~k:0 inst in
  (match r.M.verdict with
  | M.Proved_sc -> ()
  | M.Weak _ -> Alcotest.fail "k=0 cannot reach non-SC states");
  Alcotest.check state_list "reachable = SC at k=0" r.M.sc_states
    (reachable_states r);
  Alcotest.(check bool) "the bound actually pruned branches" true
    (r.M.stats.M.bound_pruned > 0)

(* ------------------------------------------------------------------ *)
(* DPOR                                                                 *)

let test_dpor_prunes_and_preserves () =
  let inst = { Litmus.Test.idiom = Litmus.Test.MP; distance = 31 } in
  let dpor = check_inst ~dpor:true inst in
  let naive = check_inst ~dpor:false inst in
  Alcotest.check state_list "same reachable states"
    (reachable_states naive) (reachable_states dpor);
  Alcotest.(check bool)
    (Printf.sprintf "DPOR explores strictly fewer transitions (%d < %d)"
       dpor.M.stats.M.explored naive.M.stats.M.explored)
    true
    (dpor.M.stats.M.explored < naive.M.stats.M.explored);
  Alcotest.(check bool) "sleep sets pruned something" true
    (dpor.M.stats.M.sleep_pruned > 0);
  Alcotest.(check int) "naive never consults sleep sets" 0
    naive.M.stats.M.sleep_pruned

let test_telemetry_counters () =
  let before = Core.Telemetry.counter_value (Core.Telemetry.counter "mcheck.explored") in
  let checks = Core.Telemetry.counter_value (Core.Telemetry.counter "mcheck.checks") in
  let inst = { Litmus.Test.idiom = Litmus.Test.SB; distance = 31 } in
  let r =
    Core.Check.check_program ~chip:k20 ~max_reorderings:2
      (Core.Check.litmus_program inst ~fenced:false)
  in
  Alcotest.(check int) "explored counter advanced by the run"
    (before + r.M.stats.M.explored)
    (Core.Telemetry.counter_value (Core.Telemetry.counter "mcheck.explored"));
  Alcotest.(check int) "checks counter bumped" (checks + 1)
    (Core.Telemetry.counter_value (Core.Telemetry.counter "mcheck.checks"))

(* ------------------------------------------------------------------ *)
(* Barriers under the weak machine                                      *)

let test_barrier_drains_under_weak () =
  let open Gpusim.Kbuild in
  let k0 = kernel "t0" ~params:[] [ store (int 0) (int 1); barrier ] in
  let k1 = kernel "t1" ~params:[] [ barrier; load "r" (int 0) ] in
  let p =
    { M.threads = [ k0; k1 ]; args = [ []; [] ]; blocks = Some [| 0; 0 |];
      init = []; watch_mem = []; watch_regs = [ (1, "r") ] }
  in
  let r = M.check ~chip:k20 ~max_reorderings:4 p in
  (match r.M.verdict with
  | M.Proved_sc -> ()
  | M.Weak _ -> Alcotest.fail "barrier release must drain the block");
  Alcotest.(check int) "single final state" 1 (List.length r.M.reachable);
  List.iter
    (fun (s : Gpusim.Sc_ref.state) ->
      Alcotest.(check (list (triple int string int)))
        "load after barrier sees the store" [ (1, "r", 1) ] s.registers)
    (reachable_states r)

let test_barrier_divergence_rejected () =
  let p =
    let open Gpusim.Kbuild in
    { M.threads = [ kernel "t0" ~params:[] [ barrier ];
                    kernel "t1" ~params:[] [] ];
      args = [ []; [] ]; blocks = Some [| 0; 0 |]; init = [];
      watch_mem = []; watch_regs = [] }
  in
  (* The SC baseline runs first, so its rejection fires before the weak
     exploration's — either message proves the program was refused. *)
  Alcotest.(check bool) "divergence rejected" true
    (try
       ignore (M.check ~chip:k20 ~max_reorderings:1 p);
       false
     with Invalid_argument m ->
       m = "Mcheck: barrier divergence" || m = "Sc_ref: barrier divergence")

(* ------------------------------------------------------------------ *)
(* Differential property: checker vs SC oracle                          *)

(* Random straight-line two-thread programs over two partitions of the
   K20 (addresses {0,1} and {32,33}).  Encoded as per-thread lists of
   (op, operand) naturals so shrinking stays meaningful. *)
let decode_thread t ops =
  let n_loads = ref 0 in
  let body =
    List.map
      (fun (op, a) ->
        let sel = op mod 3 in
        let word = [| 0; 1; 32; 33 |].(a mod 4) in
        let v = (a mod 3) + 1 in
        let open Gpusim.Kbuild in
        match sel with
        | 0 -> store (int word) (int v)
        | 1 ->
          incr n_loads;
          load (Printf.sprintf "r%d" !n_loads) (int word)
        | _ -> atomic_add (int word) (int 1))
      ops
  in
  let regs = List.init !n_loads (fun i -> (t, Printf.sprintf "r%d" (i + 1))) in
  (Gpusim.Kbuild.kernel (Printf.sprintf "t%d" t) ~params:[] body, regs)

let fence_all (k : Gpusim.Kernel.t) =
  let k = Gpusim.Kernel.label k in
  let sites = Gpusim.Kernel.global_access_sites k in
  Gpusim.Kernel.insert_fences_after ~scope:Gpusim.Kernel.Device
    ~sites:(fun s -> List.mem s sites)
    k

let program_of ~fenced (ops0, ops1) =
  let k0, regs0 = decode_thread 0 ops0 in
  let k1, regs1 = decode_thread 1 ops1 in
  let threads = [ k0; k1 ] in
  let threads = if fenced then List.map fence_all threads else threads in
  { M.threads; args = [ []; [] ]; blocks = None; init = [];
    watch_mem = [ 0; 1; 32; 33 ]; watch_regs = regs0 @ regs1 }

let sc_oracle (p : M.program) =
  Gpusim.Sc_ref.run ?blocks:p.M.blocks ~threads:p.M.threads ~args:p.M.args
    ~init:p.M.init ~watch_mem:p.M.watch_mem ~watch_regs:p.M.watch_regs ()

let thread_gen =
  QCheck.(list_of_size Gen.(int_range 1 3) (pair small_nat small_nat))

let prop_fenced_equals_sc =
  QCheck.Test.make ~name:"fully fenced: checker set = SC oracle set" ~count:40
    QCheck.(pair thread_gen thread_gen)
  @@ fun ops ->
  let p = program_of ~fenced:true ops in
  let r = M.check ~chip:k20 ~max_reorderings:2 p in
  reachable_states r = sc_oracle p && r.M.verdict = M.Proved_sc

let prop_unfenced_superset_replayable =
  QCheck.Test.make
    ~name:"unfenced: checker ⊇ SC oracle, extras replay in Sim" ~count:40
    QCheck.(pair thread_gen thread_gen)
  @@ fun ops ->
  let p = program_of ~fenced:false ops in
  let r = M.check ~chip:k20 ~max_reorderings:2 p in
  let reach = reachable_states r in
  let sc = sc_oracle p in
  List.for_all (fun s -> List.mem s reach) sc
  && (match r.M.verdict with
     | M.Proved_sc -> List.length reach = List.length sc
     | M.Weak ws -> Core.Check.replay_witnesses ~chip:k20 p ws = [])

(* ------------------------------------------------------------------ *)
(* Zero divisors                                                        *)

let refusal f =
  match f () with _ -> None | exception Invalid_argument m -> Some m

let test_zero_divisor_refused () =
  (* Sim traps on a zero divisor, so neither checker may report a final
     state for it: [z := 0; out := 7 op z] is refused by the SC oracle
     (which Mcheck runs first), and a divisor that is zero only on a
     weak schedule (MP's stale read of x) by Mcheck's own exploration. *)
  let open Gpusim.Kbuild in
  List.iter
    (fun (op, what) ->
      let k =
        kernel "div0" ~params:[ "out" ]
          [ def "z" (int 0); store (param "out") (op (int 7) (reg "z")) ]
      in
      let sim = Gpusim.Sim.create ~chip:k20 ~seed:1 () in
      (match
         (Gpusim.Sim.launch sim ~grid:1 ~block:1 k ~args:[ ("out", 0) ])
           .Gpusim.Sim.outcome
       with
      | Gpusim.Sim.Trapped m -> Alcotest.(check string) "Sim traps" what m
      | Gpusim.Sim.Finished | Gpusim.Sim.Timeout ->
        Alcotest.failf "Sim must trap on %s" what);
      let p =
        { M.threads = [ k ]; args = [ [ ("out", 0) ] ]; blocks = None;
          init = []; watch_mem = [ 0 ]; watch_regs = [] }
      in
      Alcotest.(check (option string)) "Sc_ref refuses"
        (Some ("Sc_ref: " ^ what))
        (refusal (fun () -> sc_oracle p));
      Alcotest.(check (option string)) "Mcheck refuses"
        (Some ("Sc_ref: " ^ what))
        (refusal (fun () -> M.check ~chip:k20 ~max_reorderings:2 p));
      let writer =
        kernel "w" ~params:[] [ store (int 0) (int 3); store (int 64) (int 1) ]
      in
      let reader =
        kernel "r" ~params:[]
          [ load "r1" (int 64);
            when_ (reg "r1" = int 1)
              [ load "r2" (int 0); store (int 128) (op (int 7) (reg "r2")) ] ]
      in
      let mp =
        { M.threads = [ writer; reader ]; args = [ []; [] ]; blocks = None;
          init = []; watch_mem = [ 128 ]; watch_regs = [] }
      in
      Alcotest.(check int) "SC never divides by zero" 2
        (List.length (sc_oracle mp));
      Alcotest.(check (option string)) "Mcheck refuses the weak schedule"
        (Some ("Mcheck: " ^ what))
        (refusal (fun () -> M.check ~chip:k20 ~max_reorderings:1 mp)))
    [ (( / ), "division by zero"); (( mod ), "remainder by zero") ]

(* ------------------------------------------------------------------ *)
(* Case-level jobs and golden reports                                   *)

let test_jobs_deterministic () =
  (* --jobs must never change the verdicts, the witness schedules or a
     single byte of either rendering. *)
  let run jobs =
    Core.Check.run_litmus ~chip:k20 ~max_reorderings:2 ~jobs
      ~distances:[ 31 ] ()
  in
  let serial = run 1 in
  let ascii = Core.Check.render_ascii serial in
  let json = Core.Json.to_string (Core.Check.render_json serial) in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check string)
        (Printf.sprintf "ascii, jobs %d" jobs)
        ascii
        (Core.Check.render_ascii r);
      Alcotest.(check string)
        (Printf.sprintf "json, jobs %d" jobs)
        json
        (Core.Json.to_string (Core.Check.render_json r)))
    [ 2; 4 ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_run () = Core.Check.run_litmus ~chip:k20 ~max_reorderings:2 ()

let test_golden_ascii () =
  Alcotest.(check string) "golden/check-k20.txt"
    (read_file "golden/check-k20.txt")
    (Core.Check.render_ascii (golden_run ()))

let test_golden_json () =
  Alcotest.(check string) "golden/check-k20.json"
    (read_file "golden/check-k20.json")
    (Core.Json.to_string (Core.Check.render_json (golden_run ())) ^ "\n")

let test_all_witnesses_replay () =
  let run = golden_run () in
  List.iter
    (fun (cr : Core.Check.case_result) ->
      Alcotest.(check (list string))
        (Core.Check.case_name cr.case ^ " replays")
        [] cr.replay_failures)
    run.Core.Check.cases

(* ------------------------------------------------------------------ *)
(* Cross-validation against the stress campaigns                        *)

let stress_env ~loc =
  let strategy =
    Core.Stress.Fixed
      { sequence = [ Core.Access_seq.St; Core.Access_seq.Ld ];
        locations = [ loc ]; scratch_words = 256 }
  in
  Core.Environment.for_litmus (Core.Environment.make strategy ~randomise:false)

let test_cross_validation () =
  (* Campaigns on the Titan under a tuned-style stress environment: every
     observed outcome must be checker-reachable, and every observed weak
     outcome must carry a witness schedule.  SB at this configuration is
     known to exhibit weak behaviour, so the test cannot pass vacuously. *)
  let weak_seen = ref 0 in
  List.iter
    (fun idiom ->
      let inst = { Litmus.Test.idiom; distance = 64 } in
      let c =
        Core.Check.cross_validate ~chip:Gpusim.Chip.titan ~seed:21 ~runs:200
          ~env:(stress_env ~loc:192) ~max_reorderings:2 inst
      in
      let name = Litmus.Test.idiom_name idiom in
      Alcotest.(check (list (pair int int)))
        (name ^ ": no campaign outcome escapes the checker")
        [] c.Core.Check.unexplained;
      Alcotest.(check (list (pair int int)))
        (name ^ ": every observed weak outcome has a witness")
        [] c.Core.Check.unwitnessed;
      Alcotest.(check bool) (name ^ ": campaign observed something") true
        (c.Core.Check.observed <> []);
      weak_seen := !weak_seen + List.length c.Core.Check.weak_observed)
    Litmus.Test.idioms;
  Alcotest.(check bool) "at least one idiom exhibited weak behaviour" true
    (!weak_seen > 0)

let () =
  Alcotest.run "mcheck"
    [ ( "verdicts",
        [ Alcotest.test_case "fenced idioms proved SC" `Quick
            test_fenced_proved_sc;
          Alcotest.test_case "unfenced weak witnessed" `Quick
            test_unfenced_weak_witnessed;
          Alcotest.test_case "same partition proved SC" `Quick
            test_same_partition_proved_sc;
          Alcotest.test_case "k=0 collapses to SC" `Quick
            test_zero_bound_is_sc ] );
      ( "dpor",
        [ Alcotest.test_case "prunes and preserves" `Quick
            test_dpor_prunes_and_preserves;
          Alcotest.test_case "telemetry counters" `Quick
            test_telemetry_counters ] );
      ( "barriers",
        [ Alcotest.test_case "release drains the block" `Quick
            test_barrier_drains_under_weak;
          Alcotest.test_case "divergence rejected" `Quick
            test_barrier_divergence_rejected ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_fenced_equals_sc;
          QCheck_alcotest.to_alcotest prop_unfenced_superset_replayable ] );
      ( "traps",
        [ Alcotest.test_case "zero divisor refused by both checkers" `Quick
            test_zero_divisor_refused ] );
      ( "reports",
        [ Alcotest.test_case "jobs 1/2/4 byte-identical" `Quick
            test_jobs_deterministic;
          Alcotest.test_case "golden ascii" `Quick test_golden_ascii;
          Alcotest.test_case "golden json" `Quick test_golden_json;
          Alcotest.test_case "all witnesses replay" `Quick
            test_all_witnesses_replay ] );
      ( "cross-validation",
        [ Alcotest.test_case "campaign outcomes have witnesses" `Slow
            test_cross_validation ] ) ]
