(* Campaign-facing front end of the bounded model checker: litmus
   program construction, case-level parallel checking, witness replay
   validation, verdict rendering, and cross-validation against the
   stress campaigns. *)

module M = Gpusim.Mcheck

let explored_c = Telemetry.counter "mcheck.explored"
let sleep_pruned_c = Telemetry.counter "mcheck.sleep_pruned"
let bound_pruned_c = Telemetry.counter "mcheck.bound_pruned"
let completed_c = Telemetry.counter "mcheck.completed"
let checks_c = Telemetry.counter "mcheck.checks"
let witnesses_c = Telemetry.counter "mcheck.weak_witnesses"

let device_words = 2048

(* {1 Litmus programs} *)

type case = { instance : Litmus.Test.instance; fenced : bool }

let case_name c =
  Printf.sprintf "%s d%d %s"
    (Litmus.Test.idiom_name c.instance.Litmus.Test.idiom)
    c.instance.Litmus.Test.distance
    (if c.fenced then "fenced" else "unfenced")

let litmus_program inst ~fenced =
  let threads, args = Litmus.Test.threads inst ~x:0 in
  let threads =
    if not fenced then threads
    else
      List.map
        (fun k ->
          let k = Gpusim.Kernel.label k in
          let sites = Gpusim.Kernel.global_access_sites k in
          Gpusim.Kernel.insert_fences_after ~scope:Gpusim.Kernel.Device
            ~sites:(fun s -> List.mem s sites)
            k)
        threads
  in
  let out = Litmus.Test.layout_words inst in
  {
    M.threads;
    args;
    blocks = None;
    init = [];
    watch_mem = [ out; out + 1 ];
    watch_regs = [];
  }

let outcome (s : Gpusim.Sc_ref.state) =
  match s.memory with
  | [ (_, r1); (_, r2) ] -> (r1, r2)
  | _ -> invalid_arg "Check.outcome: state does not watch exactly two words"

(* {1 Checking} *)

let check_program ~chip ~max_reorderings (p : M.program) =
  let r = M.check ~chip ~max_reorderings ~words:device_words p in
  Telemetry.incr checks_c;
  Telemetry.add explored_c r.M.stats.M.explored;
  Telemetry.add sleep_pruned_c r.M.stats.M.sleep_pruned;
  Telemetry.add bound_pruned_c r.M.stats.M.bound_pruned;
  Telemetry.add completed_c r.M.stats.M.completed;
  (match r.M.verdict with
  | M.Proved_sc -> ()
  | M.Weak ws -> Telemetry.add witnesses_c (List.length ws));
  r

(* {1 Witness replay} *)

let replay_witnesses ~chip (p : M.program) ws =
  List.filter_map
    (fun (w : M.witness) ->
      let sched = M.schedule_to_string w.M.schedule in
      Gpusim.Sim.with_sim ~words:device_words ~chip ~seed:0 (fun t ->
          List.iter (fun (a, v) -> Gpusim.Sim.write t a v) p.M.init;
          match
            Gpusim.Sim.run_schedule t ?blocks:p.M.blocks ~threads:p.M.threads
              ~args:p.M.args ~watch_mem:p.M.watch_mem
              ~watch_regs:p.M.watch_regs w.M.schedule
          with
          | state, reorders ->
            if state = w.M.state && reorders = w.M.reorders then None
            else
              Some
                (Printf.sprintf "schedule %s: replay diverged from witness"
                   sched)
          | exception Failure msg ->
            Some (Printf.sprintf "schedule %s: %s" sched msg)))
    ws

(* {1 The litmus check driver} *)

type case_result = {
  case : case;
  proved : bool;
  sc : (int * int) list;
  weak : ((int * int) * M.witness) list;
  replay_failures : string list;
  stats : M.stats;
}

type run = {
  chip : Gpusim.Chip.t;
  max_reorderings : int;
  cases : case_result list;
}

let check_case ~chip ~max_reorderings case =
  let p = litmus_program case.instance ~fenced:case.fenced in
  let r = check_program ~chip ~max_reorderings p in
  let replay_failures = replay_witnesses ~chip p r.M.reachable in
  let sc = List.map outcome r.M.sc_states |> List.sort_uniq compare in
  let weak =
    match r.M.verdict with
    | M.Proved_sc -> []
    | M.Weak ws -> List.map (fun (w : M.witness) -> (outcome w.M.state, w)) ws
  in
  { case; proved = weak = []; sc; weak; replay_failures; stats = r.M.stats }

let default_distances (chip : Gpusim.Chip.t) =
  [ 0; chip.weakness.patch_size - 1 ]

(* The highest address is the second observed word after the pair. *)
let fits distance =
  distance >= 0
  && Litmus.Test.layout_words { Litmus.Test.idiom = MP; distance } + 2
     <= device_words

let run_litmus ~chip ~max_reorderings ?(jobs = 1) ?distances () =
  let distances =
    match distances with Some d -> d | None -> default_distances chip
  in
  if max_reorderings < 0 then
    invalid_arg "Check.run_litmus: max_reorderings must be non-negative";
  if not (List.for_all fits distances) then
    invalid_arg "Check.run_litmus: a distance does not fit the device";
  let cases =
    List.concat_map
      (fun idiom ->
        List.concat_map
          (fun distance ->
            List.map
              (fun fenced ->
                { instance = { Litmus.Test.idiom; distance }; fenced })
              [ false; true ])
          distances)
      Litmus.Test.idioms
  in
  (* One job per case: each case is checked serially on the domain that
     takes it, and Exec returns the results in plan order. *)
  {
    chip;
    max_reorderings;
    cases =
      Exec.run
        ~backend:(Exec.backend_of_jobs jobs)
        ~label:"check" ~seed:0
        ~f:(fun ~seed:_ case -> check_case ~chip ~max_reorderings case)
        cases;
  }

(* {1 Rendering}

   Both renderers are wall-clock-free and depend only on the [run]
   value, so their output is stable across machines and job counts —
   golden files and the --jobs determinism test rely on this. *)

let outcome_string (r1, r2) = Printf.sprintf "(%d,%d)" r1 r2

let outcomes_string = function
  | [] -> "-"
  | l -> String.concat " " (List.map outcome_string l)

let render_ascii run =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "bounded schedule exploration: chip %s, max reorderings %d\n\n"
    run.chip.Gpusim.Chip.name run.max_reorderings;
  Printf.bprintf b "%-6s %-4s %-9s %-10s %-20s %-14s %9s %9s %9s\n" "idiom"
    "dist" "fences" "verdict" "sc outcomes" "weak" "explored" "pruned"
    "schedules";
  List.iter
    (fun cr ->
      Printf.bprintf b "%-6s %-4d %-9s %-10s %-20s %-14s %9d %9d %9d\n"
        (Litmus.Test.idiom_name cr.case.instance.Litmus.Test.idiom)
        cr.case.instance.Litmus.Test.distance
        (if cr.case.fenced then "all" else "none")
        (if cr.proved then "proved-sc" else "weak")
        (outcomes_string cr.sc)
        (outcomes_string (List.map fst cr.weak))
        cr.stats.M.explored
        (cr.stats.M.sleep_pruned + cr.stats.M.bound_pruned)
        cr.stats.M.completed)
    run.cases;
  let witnesses =
    List.concat_map (fun cr -> List.map (fun w -> (cr, w)) cr.weak) run.cases
  in
  if witnesses <> [] then begin
    Buffer.add_string b "\nwitness schedules:\n";
    List.iter
      (fun (cr, (o, (w : M.witness))) ->
        Printf.bprintf b "  %-18s %s  %d reorder(s)  %s\n" (case_name cr.case)
          (outcome_string o) w.M.reorders
          (M.schedule_to_string w.M.schedule))
      witnesses
  end;
  let replayed =
    List.fold_left
      (fun acc cr -> acc + List.length cr.weak + List.length cr.sc)
      0 run.cases
  in
  let failures = List.concat_map (fun cr -> cr.replay_failures) run.cases in
  if failures = [] then
    Printf.bprintf b "\nreplay: all %d reachable states confirmed in Sim\n"
      replayed
  else begin
    Printf.bprintf b "\nreplay FAILURES (%d):\n" (List.length failures);
    List.iter (fun f -> Printf.bprintf b "  %s\n" f) failures
  end;
  Buffer.contents b

let json_outcome (r1, r2) = Json.List [ Json.Int r1; Json.Int r2 ]

let render_json run =
  Json.Assoc
    [
      ("chip", Json.String run.chip.Gpusim.Chip.name);
      ("max_reorderings", Json.Int run.max_reorderings);
      ( "cases",
        Json.List
          (List.map
             (fun cr ->
               Json.Assoc
                 [
                   ( "idiom",
                     Json.String
                       (Litmus.Test.idiom_name
                          cr.case.instance.Litmus.Test.idiom) );
                   ( "distance",
                     Json.Int cr.case.instance.Litmus.Test.distance );
                   ("fenced", Json.Bool cr.case.fenced);
                   ( "verdict",
                     Json.String (if cr.proved then "proved-sc" else "weak") );
                   ("sc", Json.List (List.map json_outcome cr.sc));
                   ( "weak",
                     Json.List
                       (List.map
                          (fun (o, (w : M.witness)) ->
                            Json.Assoc
                              [
                                ("outcome", json_outcome o);
                                ("reorders", Json.Int w.M.reorders);
                                ( "schedule",
                                  Json.String
                                    (M.schedule_to_string w.M.schedule) );
                              ])
                          cr.weak) );
                   ( "replay_failures",
                     Json.List
                       (List.map
                          (fun f -> Json.String f)
                          cr.replay_failures) );
                   ( "stats",
                     Json.Assoc
                       [
                         ("explored", Json.Int cr.stats.M.explored);
                         ("sleep_pruned", Json.Int cr.stats.M.sleep_pruned);
                         ("bound_pruned", Json.Int cr.stats.M.bound_pruned);
                         ("completed", Json.Int cr.stats.M.completed);
                         ("roots", Json.Int cr.stats.M.roots);
                       ] );
                 ])
             run.cases) );
    ]

(* {1 Cross-validation against the stress campaigns} *)

type cross = {
  observed : (int * int) list;
  reachable : (int * int) list;
  unexplained : (int * int) list;
  weak_observed : (int * int) list;
  unwitnessed : (int * int) list;
}

let cross_validate ~chip ~seed ~runs ?env ~max_reorderings inst =
  let observed = Litmus.Runner.observed ~chip ~seed ?env ~runs inst in
  let r =
    check_program ~chip ~max_reorderings (litmus_program inst ~fenced:false)
  in
  let reachable =
    List.map (fun (w : M.witness) -> outcome w.M.state) r.M.reachable
    |> List.sort_uniq compare
  in
  let unexplained =
    List.filter (fun o -> not (List.mem o reachable)) observed
  in
  let weak_observed =
    List.filter (fun (r1, r2) -> Litmus.Test.weak inst ~r1 ~r2) observed
  in
  let witnessed =
    match r.M.verdict with
    | M.Proved_sc -> []
    | M.Weak ws ->
      List.map (fun (w : M.witness) -> outcome w.M.state) ws
      |> List.sort_uniq compare
  in
  let unwitnessed =
    List.filter (fun o -> not (List.mem o witnessed)) weak_observed
  in
  { observed; reachable; unexplained; weak_observed; unwitnessed }
