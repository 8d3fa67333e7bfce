(* The plan/execute/reduce engine: seed derivation compatibility with
   the historical sequential RNG threading, plan-order results, error
   propagation, and the headline guarantee that the parallel backend is
   bit-identical to the serial one on the real campaign drivers. *)

let test_plan_matches_bits30_stream () =
  (* The contract that keeps every historical seed-sensitive result
     reproducible: plan's i-th seed is the i-th draw of the old
     sequential master RNG. *)
  List.iter
    (fun master ->
      let rng = Gpusim.Rng.create master in
      let jobs = Core.Exec.plan ~seed:master (List.init 50 Fun.id) in
      List.iter
        (fun j ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d, job %d" master j.Core.Exec.index)
            (Gpusim.Rng.bits30 rng) j.Core.Exec.seed)
        jobs)
    [ 0; 1; 3; 42; 123456789 ]

let test_plan_indices_and_payloads () =
  let jobs = Core.Exec.plan ~seed:7 [ "a"; "b"; "c" ] in
  Alcotest.(check (list int)) "indices in order" [ 0; 1; 2 ]
    (List.map (fun j -> j.Core.Exec.index) jobs);
  Alcotest.(check (list string)) "payloads in order" [ "a"; "b"; "c" ]
    (List.map (fun j -> j.Core.Exec.payload) jobs)

let test_backend_of_jobs () =
  Alcotest.(check bool) "0 jobs is serial" true
    (Core.Exec.backend_of_jobs 0 = Core.Exec.Serial);
  Alcotest.(check bool) "1 job is serial" true
    (Core.Exec.backend_of_jobs 1 = Core.Exec.Serial);
  Alcotest.(check bool) "4 jobs is parallel" true
    (Core.Exec.backend_of_jobs 4 = Core.Exec.Parallel 4)

let test_map_preserves_plan_order () =
  (* Results must come back in plan order even though the parallel pool
     completes jobs in whatever order the scheduler picks. *)
  let payloads = List.init 200 Fun.id in
  let f j = (j.Core.Exec.index, j.Core.Exec.seed, j.Core.Exec.payload * 2) in
  let serial =
    Core.Exec.map ~backend:Core.Exec.Serial ~f (Core.Exec.plan ~seed:9 payloads)
  in
  List.iter
    (fun jobs ->
      let par =
        Core.Exec.map ~backend:(Core.Exec.Parallel jobs) ~f
          (Core.Exec.plan ~seed:9 payloads)
      in
      Alcotest.(check bool)
        (Printf.sprintf "parallel %d = serial" jobs)
        true (par = serial))
    [ 2; 3; 4; 8 ]

let test_exception_propagates () =
  let payloads = List.init 64 Fun.id in
  let boom j = if j.Core.Exec.payload = 37 then failwith "boom" else () in
  List.iter
    (fun backend ->
      Alcotest.check_raises "job exception reaches the caller"
        (Failure "boom") (fun () ->
          ignore
            (Core.Exec.map ~backend ~f:boom (Core.Exec.plan ~seed:1 payloads))))
    [ Core.Exec.Serial; Core.Exec.Parallel 4 ]

let test_exception_leaves_pool_clean () =
  (* A crashed parallel run must join every helper domain before
     re-raising, so the engine is immediately reusable. *)
  let payloads = List.init 64 Fun.id in
  (try
     ignore
       (Core.Exec.map
          ~backend:(Core.Exec.Parallel 4)
          ~f:(fun j -> if j.Core.Exec.payload = 5 then failwith "boom")
          (Core.Exec.plan ~seed:2 payloads))
   with Failure _ -> ());
  let r =
    Core.Exec.map
      ~backend:(Core.Exec.Parallel 4)
      ~f:(fun j -> j.Core.Exec.payload + 1)
      (Core.Exec.plan ~seed:2 payloads)
  in
  Alcotest.(check (list int)) "a fresh parallel run still works"
    (List.map (( + ) 1) payloads)
    r

let test_for_all_abort_skips_remaining () =
  (* Once a failure is known, the shared abort flag must stop workers
     from processing the rest of their chunks and from taking new ones. *)
  let total = 3200 in
  let processed = Atomic.make 0 in
  let ok =
    Core.Exec.for_all
      ~backend:(Core.Exec.Parallel 4)
      ~seed:8
      ~f:(fun ~seed:_ p ->
        Atomic.incr processed;
        p <> 0)
      (List.init total Fun.id)
  in
  Alcotest.(check bool) "the failure is reported" false ok;
  Alcotest.(check bool)
    (Printf.sprintf "early abort: %d of %d jobs ran" (Atomic.get processed)
       total)
    true
    (Atomic.get processed < 1000)

let test_ticker_rate_limited () =
  (* A sub-second campaign must produce exactly the final progress line,
     not one message per job. *)
  let messages = ref [] in
  let finishes = ref 0 in
  let mu = Mutex.create () in
  Core.Exec.set_progress
    (Some
       { Core.Exec.line =
           (fun m ->
             Mutex.lock mu;
             messages := m :: !messages;
             Mutex.unlock mu);
         finished =
           (fun () ->
             Mutex.lock mu;
             incr finishes;
             Mutex.unlock mu) });
  Fun.protect
    ~finally:(fun () -> Core.Exec.set_progress None)
    (fun () ->
      List.iter
        (fun backend ->
          messages := [];
          finishes := 0;
          ignore
            (Core.Exec.map ~backend ~label:"tick-test"
               ~f:(fun _ -> ())
               (Core.Exec.plan ~seed:1 (List.init 500 Fun.id)));
          let n = List.length !messages in
          Alcotest.(check bool)
            (Printf.sprintf "%d message(s) for 500 fast jobs" n)
            true
            (n >= 1 && n <= 5);
          Alcotest.(check bool) "the final line reports completion" true
            (Test_util.contains (List.hd !messages) "500/500");
          Alcotest.(check int) "finished fires exactly once" 1 !finishes)
        [ Core.Exec.Serial; Core.Exec.Parallel 4 ])

let test_for_all_agrees_across_backends () =
  let payloads = List.init 100 Fun.id in
  List.iter
    (fun pred ->
      let expect =
        Core.Exec.for_all ~backend:Core.Exec.Serial ~seed:5
          ~f:(fun ~seed:_ p -> pred p)
          payloads
      in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "for_all, %d domains" jobs)
            expect
            (Core.Exec.for_all ~backend:(Core.Exec.Parallel jobs) ~seed:5
               ~f:(fun ~seed:_ p -> pred p)
               payloads))
        [ 2; 4 ])
    [ (fun _ -> true); (fun p -> p <> 63); (fun p -> p < 2) ]

(* ------------------------------------------------------------------ *)
(* Jobs clamping                                                       *)

let test_clamp_jobs () =
  List.iter
    (fun (raw, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "clamp_jobs %d" raw)
        expect
        (Core.Exec.clamp_jobs ~warn:false raw))
    [ (0, 1); (-5, 1); (1, 1); (7, 7); (512, 512); (513, 512);
      (100000, 512) ]

let test_pool_past_domain_limit () =
  (* The widest accepted pool asks for more domains than the runtime
     starts (128 live in OCaml 5.1).  Helpers hold their first job until
     the calling domain runs one, which it does only after spawning every
     helper it could, so the spawns really reach the limit; the pool must
     then run on the domains it got, with the serial results. *)
  let payloads = List.init 600 Fun.id in
  let f ~seed p = (seed * 31) + p in
  let serial = Core.Exec.run ~backend:Core.Exec.Serial ~seed:12 ~f payloads in
  let caller = Domain.self () in
  let released = Atomic.make false in
  let held ~seed p =
    if Domain.self () = caller then Atomic.set released true
    else
      while not (Atomic.get released) do
        Unix.sleepf 0.001
      done;
    f ~seed p
  in
  Alcotest.(check (list int)) "Parallel max_jobs = serial" serial
    (Core.Exec.run
       ~backend:(Core.Exec.Parallel Core.Exec.max_jobs)
       ~seed:12 ~f:held payloads)

(* ------------------------------------------------------------------ *)
(* Supervised execution: deterministic retry, quarantine, timeouts.    *)

let with_supervision s f =
  Core.Exec.set_supervision (Some s);
  Fun.protect ~finally:(fun () -> Core.Exec.set_supervision None) f

(* A pure job function and its unsupervised reference results. *)
let sup_payloads = List.init 40 Fun.id
let sup_f ~seed p = (seed * 31) + p

let sup_run ?quarantine ~jobs () =
  Core.Exec.run
    ~backend:(Core.Exec.backend_of_jobs jobs)
    ?quarantine ~seed:3 ~f:sup_f sup_payloads

let sup_reference = lazy (sup_run ~jobs:1 ())

(* The same jobs through [Exec.map], which obeys the policy too. *)
let sup_map ~jobs () =
  Core.Exec.map
    ~backend:(Core.Exec.backend_of_jobs jobs)
    ~f:(fun j -> sup_f ~seed:j.Core.Exec.seed j.Core.Exec.payload)
    (Core.Exec.plan ~seed:3 sup_payloads)

let test_retry_heals_bit_identical () =
  (* faulty_attempts 1 with one retry: every faulted job heals on its
     second attempt, which reuses the planned seed — the supervised run
     must be bit-identical to the unsupervised one. *)
  let plan =
    Core.Fault.plan ~rate:0.6 ~kinds:[ Core.Fault.Raise ] ~faulty_attempts:1
      ~seed:77 ()
  in
  let expected_retries =
    List.fold_left
      (fun acc index ->
        acc + (Core.Fault.predict plan ~retries:1 ~index).Core.Fault.attempts
        - 1)
      0
      (List.init (List.length sup_payloads) Fun.id)
  in
  Alcotest.(check bool) "the plan actually faults some jobs" true
    (expected_retries > 0);
  let reference = Lazy.force sup_reference in
  with_supervision (Core.Exec.supervision ~retries:1 ~faults:plan ())
  @@ fun () ->
  List.iter
    (fun (what, run) ->
      let r = run ~jobs:4 () in
      let s = Core.Exec.drain_summary () in
      Alcotest.(check bool)
        (Printf.sprintf "healed %s = unsupervised run" what)
        true (r = reference);
      Alcotest.(check int)
        (Printf.sprintf "%s: retry count matches the fault plan" what)
        expected_retries s.Core.Exec.retried;
      Alcotest.(check int) "nothing quarantined" 0
        (List.length s.Core.Exec.quarantined))
    [ ("run", fun ~jobs () -> sup_run ~jobs ()); ("map", sup_map) ]

let test_quarantine_matches_prediction () =
  (* No retries against a two-attempt fault window: predicted-fatal jobs
     must be quarantined (fallback value, failed summary entry) and every
     other job must be untouched. *)
  let plan =
    Core.Fault.plan ~rate:0.5
      ~kinds:[ Core.Fault.Raise; Core.Fault.Ledger_fail ]
      ~faulty_attempts:2 ~seed:5 ()
  in
  let predicted =
    List.filteri
      (fun index _ ->
        (Core.Fault.predict plan ~retries:0 ~index).Core.Fault.outcome
        = `Quarantined)
      sup_payloads
  in
  Alcotest.(check bool) "the plan predicts some quarantines" true
    (predicted <> []);
  List.iter
    (fun jobs ->
      with_supervision
        (Core.Exec.supervision ~retries:0 ~keep_going:true ~faults:plan ())
      @@ fun () ->
      let r = sup_run ~quarantine:(fun _ _ -> -1) ~jobs () in
      let s = Core.Exec.drain_summary () in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d: quarantined set = prediction" jobs)
        predicted
        (List.map (fun fl -> fl.Core.Exec.f_index) s.Core.Exec.quarantined);
      List.iteri
        (fun i v ->
          if List.mem i predicted then
            Alcotest.(check int) "fallback value in place" (-1) v
          else
            Alcotest.(check int) "healthy job untouched"
              (List.nth (Lazy.force sup_reference) i)
              v)
        r)
    [ 1; 4 ]

let test_hang_cancelled_at_deadline () =
  (* Every first attempt hangs; its deadline must cancel it at the
     timeout and the clean retry must reproduce the reference bits. *)
  let plan =
    Core.Fault.plan ~rate:1.0 ~kinds:[ Core.Fault.Hang ] ~faulty_attempts:1
      ~seed:9 ()
  in
  let payloads = List.init 4 Fun.id in
  let reference =
    Core.Exec.run ~backend:Core.Exec.Serial ~seed:6 ~f:sup_f payloads
  in
  with_supervision
    (Core.Exec.supervision ~timeout_s:0.3 ~retries:1 ~faults:plan ())
  @@ fun () ->
  let r =
    Core.Exec.run ~backend:(Core.Exec.Parallel 4) ~seed:6 ~f:sup_f payloads
  in
  let s = Core.Exec.drain_summary () in
  Alcotest.(check bool) "cancelled-then-retried run = reference" true
    (r = reference);
  Alcotest.(check int) "every job burned one retry" 4 s.Core.Exec.retried;
  Alcotest.(check int) "no quarantines" 0
    (List.length s.Core.Exec.quarantined)

let test_nested_phase_keeps_deadline () =
  (* The job's attempt is armed for 0.2 s.  A nested supervised phase on
     the same domain runs its own attempt, and must hand the job's
     deadline back when it ends: the job's later poll loop is cancelled
     at 0.2 s instead of running its 2 s to completion. *)
  with_supervision (Core.Exec.supervision ~timeout_s:0.2 ()) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let job ~seed:_ _ =
    ignore
      (Core.Exec.for_all ~backend:Core.Exec.Serial ~seed:1
         ~f:(fun ~seed:_ _ -> true)
         [ 0 ]);
    while Unix.gettimeofday () -. t0 < 2.0 do
      Core.Exec.poll ();
      Unix.sleepf 0.001
    done;
    0
  in
  match Core.Exec.run ~backend:Core.Exec.Serial ~seed:1 ~f:job [ 0 ] with
  | _ -> Alcotest.fail "the job outlived its timeout"
  | exception Core.Exec.Job_failed fl ->
    let elapsed = Unix.gettimeofday () -. t0 in
    ignore (Core.Exec.drain_summary ());
    Alcotest.(check bool) "the failure is a timeout" true
      fl.Core.Exec.f_timed_out;
    Alcotest.(check bool)
      (Printf.sprintf "cancelled well before 2 s (%.2f s)" elapsed)
      true (elapsed < 1.0)

let test_deadline_ends_with_attempt () =
  (* Attempts that end by a value, an exception, a timeout or an
     interruption must each disarm the domain's deadline: a poll on the
     same domain after the run, past the timeout, raises nothing. *)
  let poll_after what =
    Unix.sleepf 0.1;
    match Core.Exec.poll () with
    | () -> ()
    | exception Core.Exec.Timed_out ->
      Alcotest.failf "the deadline outlived an attempt that ended by %s" what
  in
  with_supervision
    (Core.Exec.supervision ~timeout_s:0.05 ~keep_going:true ())
  @@ fun () ->
  ignore (Core.Exec.run ~backend:Core.Exec.Serial ~seed:1 ~f:sup_f [ 0 ]);
  poll_after "a value";
  let failing ~seed:_ p =
    if p = 0 then failwith "job crash"
    else
      while true do
        Core.Exec.poll ();
        Unix.sleepf 0.001
      done;
    0
  in
  ignore
    (Core.Exec.run ~backend:Core.Exec.Serial ~quarantine:(fun _ _ -> -1)
       ~seed:1 ~f:failing [ 0; 1 ]);
  let s = Core.Exec.drain_summary () in
  Alcotest.(check (list bool)) "one crash, one timeout" [ false; true ]
    (List.map (fun fl -> fl.Core.Exec.f_timed_out) s.Core.Exec.quarantined);
  poll_after "an exception or a timeout";
  (match
     Core.Exec.run ~backend:Core.Exec.Serial ~seed:1
       ~f:(fun ~seed:_ _ -> raise (Core.Exec.Interrupted 15))
       [ 0 ]
   with
  | _ -> Alcotest.fail "an interrupted job must raise"
  | exception Core.Exec.Interrupted 15 -> ());
  poll_after "an interruption"

let test_supervision_refuses_non_finite_timeout () =
  List.iter
    (fun t ->
      match Core.Exec.supervision ~timeout_s:t () with
      | _ -> Alcotest.failf "timeout %g accepted" t
      | exception Invalid_argument _ -> ())
    [ nan; infinity; 0.0; -1.0 ]

let test_hang_without_timeout_degrades_to_raise () =
  (* A Hang fault with no timeout armed must not wedge the process: it
     degrades to an injected raise naming the missing timeout. *)
  let plan =
    Core.Fault.plan ~rate:1.0 ~kinds:[ Core.Fault.Hang ] ~faulty_attempts:1
      ~seed:2 ()
  in
  with_supervision
    (Core.Exec.supervision ~retries:0 ~keep_going:true ~faults:plan ())
  @@ fun () ->
  let r =
    Core.Exec.run ~backend:Core.Exec.Serial ~quarantine:(fun _ _ -> -1)
      ~seed:1 ~f:sup_f [ 0; 1; 2 ]
  in
  let s = Core.Exec.drain_summary () in
  Alcotest.(check (list int)) "every job quarantined" [ -1; -1; -1 ] r;
  List.iter
    (fun fl ->
      Alcotest.(check bool) "the reason names the missing timeout" true
        (Test_util.contains fl.Core.Exec.f_reason "no timeout armed"))
    s.Core.Exec.quarantined

let test_poison_job_raises_without_keep_going () =
  let plan =
    Core.Fault.plan ~rate:1.0 ~kinds:[ Core.Fault.Raise ] ~faulty_attempts:8
      ~seed:4 ()
  in
  with_supervision
    (Core.Exec.supervision ~retries:1 ~keep_going:false ~faults:plan ())
  @@ fun () ->
  List.iter
    (fun (what, run) ->
      match run () with
      | _ -> Alcotest.failf "a poison %s job without keep_going must raise" what
      | exception Core.Exec.Job_failed fl ->
        ignore (Core.Exec.drain_summary ());
        Alcotest.(check string) "the failure names the entry point" what
          fl.Core.Exec.f_label;
        Alcotest.(check int) "both attempts were consumed" 2
          fl.Core.Exec.f_attempts;
        Alcotest.(check bool) "the reason names the injected fault" true
          (Test_util.contains fl.Core.Exec.f_reason
             "injected fault: job crash"))
    [ ("run", sup_run ~quarantine:(fun _ _ -> -1) ~jobs:2);
      ("map", sup_map ~jobs:2) ]

(* Satellite: a fully cached journal must answer without calling [f]
   (and hence without starting the pool). *)
let test_cached_run_never_calls_f () =
  let path = Filename.temp_file "exec-cache" ".jsonl" in
  let header =
    { Core.Runlog.schema = Core.Runlog.schema_version; campaign = "test";
      argv = []; seed = 3; jobs = 0; grid = Core.Json.Null; git = None;
      created = 0.0; shard = None; merged = None }
  in
  let sink = Core.Runlog.create ~deterministic:true ~path header in
  let r1 =
    Core.Exec.run ~backend:Core.Exec.Serial
      ~journal:(Core.Runlog.journal ~sink "")
      ~codec:Core.Runlog.int_codec ~seed:3 ~f:sup_f sup_payloads
  in
  Core.Runlog.close sink;
  let cache =
    match Core.Runlog.load path with
    | Ok l -> Core.Runlog.cache_of_ledger l
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let r2 =
    Core.Exec.run
      ~backend:(Core.Exec.Parallel 4)
      ~journal:(Core.Runlog.journal ~cache "")
      ~codec:Core.Runlog.int_codec ~seed:3
      ~f:(fun ~seed:_ _ -> Alcotest.fail "f called on a fully cached run")
      sup_payloads
  in
  Alcotest.(check bool) "cached results replay bit-identically" true
    (r1 = r2)

(* Satellite: the supervised retry schedule and the reduced result are a
   pure function of (campaign seed, fault plan) — identical for every
   --jobs value. *)
let prop_supervised_deterministic =
  QCheck.Test.make
    ~name:"supervised run: same seed + plan = same result (jobs in {1,2,4})"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun fault_seed ->
      let plan =
        Core.Fault.plan ~rate:0.5
          ~kinds:
            [ Core.Fault.Raise; Core.Fault.Ledger_fail; Core.Fault.Corrupt ]
          ~faulty_attempts:2 ~seed:fault_seed ()
      in
      let observe jobs =
        with_supervision
          (Core.Exec.supervision ~retries:1 ~keep_going:true ~faults:plan ())
        @@ fun () ->
        let r = sup_run ~quarantine:(fun _ _ -> -1) ~jobs () in
        let s = Core.Exec.drain_summary () in
        ( r,
          s.Core.Exec.retried,
          List.map
            (fun fl ->
              ( fl.Core.Exec.f_index, fl.Core.Exec.f_attempts,
                fl.Core.Exec.f_reason ))
            s.Core.Exec.quarantined )
      in
      let reference = observe 1 in
      List.for_all (fun jobs -> observe jobs = reference) [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* The headline property: real campaign drivers are bit-identical
   across backends at the same seed. *)

let campaign_at ~backend ~seed =
  let apps = List.filter_map Apps.Registry.by_name [ "cbe-dot"; "sdk-red" ] in
  let envs chip =
    let tuned = Core.Tuning.shipped ~chip in
    [ Core.Environment.make Core.Stress.No_stress ~randomise:false;
      Core.Environment.sys_plus ~tuned ]
  in
  Core.Campaign.run ~backend ~chips:[ Gpusim.Chip.k20 ] ~environments_for:envs
    ~apps ~runs:5 ~seed ()

let prop_campaign_backend_equality =
  QCheck.Test.make ~name:"Campaign.run: serial = parallel (jobs in {1,2,4})"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let reference = campaign_at ~backend:Core.Exec.Serial ~seed in
      List.for_all
        (fun jobs ->
          campaign_at ~backend:(Core.Exec.backend_of_jobs jobs) ~seed
          = reference)
        [ 1; 2; 4 ])

let patch_at ~backend ~seed =
  Core.Patch_finder.run ~backend ~chip:Gpusim.Chip.titan ~seed
    ~budget:Core.Budget.quick ()

let prop_patch_finder_backend_equality =
  QCheck.Test.make
    ~name:"Patch_finder.run: serial = parallel (jobs in {1,2,4})" ~count:3
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let reference = patch_at ~backend:Core.Exec.Serial ~seed in
      List.for_all
        (fun jobs ->
          patch_at ~backend:(Core.Exec.backend_of_jobs jobs) ~seed = reference)
        [ 1; 2; 4 ])

let () =
  Alcotest.run "exec"
    [ ( "engine",
        [ Alcotest.test_case "plan seeds = bits30 stream" `Quick
            test_plan_matches_bits30_stream;
          Alcotest.test_case "plan order" `Quick test_plan_indices_and_payloads;
          Alcotest.test_case "backend_of_jobs" `Quick test_backend_of_jobs;
          Alcotest.test_case "map preserves plan order" `Quick
            test_map_preserves_plan_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool reusable after exception" `Quick
            test_exception_leaves_pool_clean;
          Alcotest.test_case "for_all aborts early" `Quick
            test_for_all_abort_skips_remaining;
          Alcotest.test_case "ticker rate-limited" `Quick
            test_ticker_rate_limited;
          Alcotest.test_case "for_all across backends" `Quick
            test_for_all_agrees_across_backends;
          Alcotest.test_case "clamp_jobs" `Quick test_clamp_jobs;
          Alcotest.test_case "pool past the domain limit" `Quick
            test_pool_past_domain_limit ] );
      ( "supervision",
        [ Alcotest.test_case "retry heals bit-identically" `Quick
            test_retry_heals_bit_identical;
          Alcotest.test_case "quarantine matches prediction" `Quick
            test_quarantine_matches_prediction;
          Alcotest.test_case "watchdog cancels hangs" `Quick
            test_hang_cancelled_at_deadline;
          Alcotest.test_case "nested phase keeps the caller's deadline" `Quick
            test_nested_phase_keeps_deadline;
          Alcotest.test_case "a deadline ends with its attempt" `Quick
            test_deadline_ends_with_attempt;
          Alcotest.test_case "non-finite timeout refused" `Quick
            test_supervision_refuses_non_finite_timeout;
          Alcotest.test_case "hang without timeout degrades" `Quick
            test_hang_without_timeout_degrades_to_raise;
          Alcotest.test_case "poison job raises without keep-going" `Quick
            test_poison_job_raises_without_keep_going;
          Alcotest.test_case "fully cached run never calls f" `Quick
            test_cached_run_never_calls_f;
          QCheck_alcotest.to_alcotest prop_supervised_deterministic ] );
      ( "backend equality",
        List.map QCheck_alcotest.to_alcotest
          [ prop_campaign_backend_equality;
            prop_patch_finder_backend_equality ] ) ]
