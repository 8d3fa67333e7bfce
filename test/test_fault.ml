(* Deterministic fault plans (Core.Fault) and simulator-level soft
   errors (gpuFI-style store-commit bit flips): purity of the fault
   function, the predict/at consistency contract the chaos driver's
   invariant checks rest on, and the guarantee that armed soft errors
   flip stored values without perturbing the simulated schedule. *)

let all_kinds =
  [ Core.Fault.Raise; Core.Fault.Hang; Core.Fault.Corrupt;
    Core.Fault.Ledger_fail ]

let fatal = function
  | Core.Fault.Raise | Core.Fault.Hang | Core.Fault.Ledger_fail -> true
  | Core.Fault.Corrupt -> false

let matrix p ~indices ~attempts =
  List.concat_map
    (fun index ->
      List.map
        (fun attempt -> Core.Fault.at p ~index ~attempt)
        (List.init attempts Fun.id))
    (List.init indices Fun.id)

let test_at_is_pure () =
  let p =
    Core.Fault.plan ~rate:0.5 ~kinds:all_kinds ~faulty_attempts:3 ~seed:42 ()
  in
  let a = matrix p ~indices:50 ~attempts:5 in
  let b = matrix p ~indices:50 ~attempts:5 in
  Alcotest.(check bool) "two evaluations agree" true (a = b);
  Alcotest.(check bool) "some attempts fault" true
    (List.exists Option.is_some a);
  Alcotest.(check bool) "some attempts run clean" true
    (List.exists Option.is_none a);
  List.iter
    (function
      | None -> ()
      | Some k ->
        Alcotest.(check bool) "drawn kind is in the plan" true
          (List.mem k all_kinds))
    a

let test_rate_edges () =
  let zero = Core.Fault.plan ~rate:0.0 ~faulty_attempts:5 ~seed:1 () in
  Alcotest.(check bool) "rate 0 never faults" true
    (List.for_all Option.is_none (matrix zero ~indices:30 ~attempts:5));
  let one =
    Core.Fault.plan ~rate:1.0 ~kinds:[ Core.Fault.Raise ] ~faulty_attempts:2
      ~seed:1 ()
  in
  List.iter
    (fun index ->
      Alcotest.(check bool) "rate 1 faults every eligible attempt" true
        (Core.Fault.at one ~index ~attempt:0 = Some Core.Fault.Raise
        && Core.Fault.at one ~index ~attempt:1 = Some Core.Fault.Raise);
      Alcotest.(check bool) "attempts past faulty_attempts run clean" true
        (Core.Fault.at one ~index ~attempt:2 = None
        && Core.Fault.at one ~index ~attempt:7 = None))
    (List.init 10 Fun.id)

let test_kinds_restricted () =
  let p =
    Core.Fault.plan ~rate:1.0 ~kinds:[ Core.Fault.Corrupt ]
      ~faulty_attempts:4 ~seed:8 ()
  in
  Alcotest.(check bool) "a one-kind plan only draws that kind" true
    (List.for_all
       (fun f -> f = Some Core.Fault.Corrupt)
       (matrix p ~indices:20 ~attempts:4))

let test_plan_validation () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty kinds rejected" true
    (invalid (fun () -> Core.Fault.plan ~kinds:[] ~seed:1 ()));
  Alcotest.(check bool) "negative rate rejected" true
    (invalid (fun () -> Core.Fault.plan ~rate:(-0.1) ~seed:1 ()));
  Alcotest.(check bool) "rate above one rejected" true
    (invalid (fun () -> Core.Fault.plan ~rate:1.5 ~seed:1 ()));
  Alcotest.(check bool) "soft error rate above one rejected" true
    (invalid (fun () -> Core.Fault.plan ~soft_error_rate:2.0 ~seed:1 ()));
  (* [nan] fails every comparison: a check that lists only what a rate
     must not be lets it through, as a plan that never fires. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "rate %g rejected" v) true
        (invalid (fun () -> Core.Fault.plan ~rate:v ~seed:1 ()));
      Alcotest.(check bool) (Printf.sprintf "soft error rate %g rejected" v)
        true
        (invalid (fun () -> Core.Fault.plan ~soft_error_rate:v ~seed:1 ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "negative faulty_attempts rejected" true
    (invalid (fun () -> Core.Fault.plan ~faulty_attempts:(-1) ~seed:1 ()))

(* The contract the chaos driver's invariant checks rest on: a
   prediction must be exactly what replaying [at] over the attempt
   budget implies.  Checked semantically (what each outcome asserts
   about the per-attempt faults), not by re-implementing [predict]. *)
let check_prediction p ~retries ~index =
  let pr = Core.Fault.predict p ~retries ~index in
  let name what =
    Printf.sprintf "plan seed %d, retries %d, job %d: %s" p.Core.Fault.seed
      retries index what
  in
  Alcotest.(check bool)
    (name "attempts within budget")
    true
    (pr.Core.Fault.attempts >= 1 && pr.Core.Fault.attempts <= retries + 1);
  let at a = Core.Fault.at p ~index ~attempt:a in
  (* Every attempt before the deciding one must have faulted fatally,
     or there would have been an earlier success. *)
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (name (Printf.sprintf "attempt %d faulted fatally" a))
        true
        (match at a with Some k -> fatal k | None -> false))
    (List.init
       (match pr.Core.Fault.outcome with
       | `Quarantined -> retries + 1
       | _ -> pr.Core.Fault.attempts - 1)
       Fun.id);
  match pr.Core.Fault.outcome with
  | `Clean ->
    Alcotest.(check bool) (name "deciding attempt is fault-free") true
      (at (pr.Core.Fault.attempts - 1) = None)
  | `Corrupted ->
    Alcotest.(check bool) (name "deciding attempt carries Corrupt") true
      (at (pr.Core.Fault.attempts - 1) = Some Core.Fault.Corrupt)
  | `Quarantined ->
    Alcotest.(check int) (name "quarantine consumed the whole budget")
      (retries + 1) pr.Core.Fault.attempts

let test_predict_matches_at () =
  List.iter
    (fun (seed, rate, kinds, faulty_attempts) ->
      let p = Core.Fault.plan ~rate ~kinds ~faulty_attempts ~seed () in
      List.iter
        (fun retries ->
          List.iter
            (fun index -> check_prediction p ~retries ~index)
            (List.init 30 Fun.id))
        [ 0; 1; 2; 3 ])
    [ (5, 0.5, all_kinds, 2);
      (7, 0.9, [ Core.Fault.Raise ], 4);
      (11, 0.3, [ Core.Fault.Corrupt; Core.Fault.Ledger_fail ], 1);
      (13, 1.0, [ Core.Fault.Hang ], 2) ]

let test_parse_kinds () =
  Alcotest.(check bool) "the four canonical names parse" true
    (Core.Fault.parse_kinds "raise,hang,corrupt,ledger" = Ok all_kinds);
  Alcotest.(check bool) "whitespace is trimmed" true
    (Core.Fault.parse_kinds " raise , ledger "
    = Ok [ Core.Fault.Raise; Core.Fault.Ledger_fail ]);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "kind_name %S round-trips" (Core.Fault.kind_name k))
        true
        (Core.Fault.parse_kinds (Core.Fault.kind_name k) = Ok [ k ]))
    all_kinds;
  (match Core.Fault.parse_kinds "raise,bogus" with
  | Ok _ -> Alcotest.fail "unknown kind must not parse"
  | Error e ->
    Alcotest.(check bool) "the error names the bad kind" true
      (Test_util.contains e "bogus"));
  Alcotest.(check bool) "empty spec rejected" true
    (match Core.Fault.parse_kinds "" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Simulator-level soft errors                                         *)

(* ls-bh commits far more plain stores per run than the reduction apps,
   so moderate rates reliably produce flips to assert on. *)
let app =
  match Apps.Registry.by_name "ls-bh" with
  | Some a -> a
  | None -> failwith "ls-bh app missing"

let with_soft_errors arm f =
  Gpusim.Sim.set_soft_error_default arm;
  Fun.protect ~finally:(fun () -> Gpusim.Sim.set_soft_error_default None) f

(* One application run on a fresh device; returns the device for
   counter inspection.  The ambient soft-error default is consulted at
   Sim.create time. *)
let run_app ~app ~seed =
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.k20 ~seed () in
  ignore (app.Apps.App.run sim Apps.App.Conservative);
  sim

let run_once ~seed = run_app ~app ~seed

let test_soft_errors_deterministic () =
  with_soft_errors (Some (0.2, 99)) @@ fun () ->
  List.iter
    (fun seed ->
      let a = run_once ~seed in
      let b = run_once ~seed in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same flips on both runs" seed)
        (Gpusim.Sim.bitflips a) (Gpusim.Sim.bitflips b);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the armed rate injects flips" seed)
        true
        (Gpusim.Sim.bitflips a > 0))
    [ 3; 17 ]

let test_disarmed_never_flips () =
  let sim = run_once ~seed:3 in
  Alcotest.(check int) "no flips without arming" 0 (Gpusim.Sim.bitflips sim)

let test_schedule_unperturbed () =
  (* The injection rng is dedicated: armed and disarmed runs of the same
     device seed must exhibit the same simulated schedule (cycles and
     reorders), differing only in stored values.  This only holds for an
     application whose control flow is data-independent (cbe-dot's fixed
     dot-product loops) — a flipped value fed back into loop bounds, as
     in ls-bh, legitimately changes the work done. *)
  let dot =
    match Apps.Registry.by_name "cbe-dot" with
    | Some a -> a
    | None -> failwith "cbe-dot app missing"
  in
  let clean = run_app ~app:dot ~seed:5 in
  with_soft_errors (Some (1.0, 99)) @@ fun () ->
  let flipped = run_app ~app:dot ~seed:5 in
  Alcotest.(check bool) "the armed run flipped something" true
    (Gpusim.Sim.bitflips flipped > 0);
  Alcotest.(check int) "same modelled runtime"
    (Gpusim.Sim.elapsed_cycles clean)
    (Gpusim.Sim.elapsed_cycles flipped);
  Alcotest.(check int) "same reorder count" (Gpusim.Sim.reorders clean)
    (Gpusim.Sim.reorders flipped)

let test_bitflip_trace_consistency () =
  with_soft_errors (Some (0.3, 7)) @@ fun () ->
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.k20 ~seed:11 () in
  let traced = ref 0 in
  let metric_total = ref 0 in
  let _ =
    Gpusim.Trace.subscribe (Gpusim.Sim.trace sim) (fun ~tick:_ ev ->
        match ev with
        | Gpusim.Trace.Bitflip { bit; before; after; _ } ->
          incr traced;
          Alcotest.(check int) "the event records the exact flip"
            (before lxor (1 lsl bit))
            after
        | Gpusim.Trace.Launch_end { metrics; _ } ->
          metric_total :=
            !metric_total + Option.value ~default:0 (List.assoc_opt "bitflip" metrics)
        | _ -> ())
  in
  ignore (app.Apps.App.run sim Apps.App.Conservative);
  let n = Gpusim.Sim.bitflips sim in
  Alcotest.(check bool) "flips happened" true (n > 0);
  Alcotest.(check int) "one Bitflip event per flip" n !traced;
  Alcotest.(check int) "Metrics.n_bitflip agrees" n !metric_total

let prop_soft_error_determinism =
  QCheck.Test.make
    ~name:"soft errors: bitflip count is a pure function of the seeds"
    ~count:6
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (fault_seed, seed) ->
      with_soft_errors (Some (0.1, fault_seed)) @@ fun () ->
      Gpusim.Sim.bitflips (run_once ~seed)
      = Gpusim.Sim.bitflips (run_once ~seed))

let () =
  Alcotest.run "fault"
    [ ( "plan",
        [ Alcotest.test_case "at is pure" `Quick test_at_is_pure;
          Alcotest.test_case "rate edges" `Quick test_rate_edges;
          Alcotest.test_case "kinds restricted" `Quick test_kinds_restricted;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "predict consistent with at" `Quick
            test_predict_matches_at;
          Alcotest.test_case "parse_kinds" `Quick test_parse_kinds ] );
      ( "soft errors",
        [ Alcotest.test_case "deterministic flips" `Quick
            test_soft_errors_deterministic;
          Alcotest.test_case "disarmed never flips" `Quick
            test_disarmed_never_flips;
          Alcotest.test_case "schedule unperturbed" `Quick
            test_schedule_unperturbed;
          Alcotest.test_case "trace and metrics agree" `Quick
            test_bitflip_trace_consistency;
          QCheck_alcotest.to_alcotest prop_soft_error_determinism ] ) ]
