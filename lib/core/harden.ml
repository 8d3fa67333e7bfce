type config = {
  environment : Environment.t;
  initial_iterations : int;
  stability_runs : int;
  max_rounds : int;
}

let default_config ~chip =
  { environment = Environment.sys_plus ~tuned:(Tuning.shipped ~chip);
    initial_iterations = 32;
    stability_runs = 200;
    max_rounds = 4 }

type result = {
  app : string;
  chip : string;
  initial : int;
  fences : (string * int) list;
  converged : bool;
  rounds : int;
  checks : int;
  elapsed_s : float;
}

let run_app ~chip ~env ~app ~fences ~seed =
  Gpusim.Sim.with_sim ~chip ~seed @@ fun sim ->
  Gpusim.Sim.set_environment sim (Environment.for_app env);
  app.Apps.App.run sim (Apps.App.Sites fences)

let check_application ?backend ~chip ~env ~app ~fences ~iterations ~seed () =
  (* Every iteration is an independent job; the boolean conjunction is
     order-independent, so both executor backends may short-circuit on
     the first failure without changing the result. *)
  Exec.for_all ?backend ~seed
    ~f:(fun ~seed () ->
      match run_app ~chip ~env ~app ~fences ~seed with
      | Ok () -> true
      | Error _ -> false)
    (List.init iterations (fun _ -> ()))

(* SplitFences: the fences are kept sorted by code position (kernel order,
   then site id); the first half goes to F1 (Sec. 5.1). *)
let split fences =
  let n = List.length fences in
  let rec go i acc = function
    | [] -> (List.rev acc, [])
    | rest when i = (n + 1) / 2 -> (List.rev acc, rest)
    | f :: rest -> go (i + 1) (f :: acc) rest
  in
  go 0 [] fences

let diff f g = List.filter (fun x -> not (List.mem x g)) f

let insert ~chip ?config ?backend ?journal ~app ~seed () =
  let cfg = match config with Some c -> c | None -> default_config ~chip in
  let t0 = Unix.gettimeofday () in
  let checks = ref 0 in
  let journal = Option.map (fun j -> Runlog.extend j "checks") journal in
  let check fences iterations =
    (* The n-th check gets the n-th subseed: the reduction path is
       adaptive, but each check's verdict is still a pure function of
       (seed, check index, fence set) — which also makes the check the
       natural resume unit: a cached verdict replays without running,
       and the adaptive reduction then takes the same path. *)
    let n = !checks in
    incr checks;
    Runlog.memo journal ~codec:Runlog.bool_codec ~index:n
      ~seed:(Gpusim.Rng.subseed seed n) (fun () ->
        check_application ?backend ~chip ~env:cfg.environment ~app ~fences
          ~iterations ~seed:(Gpusim.Rng.subseed seed n) ())
  in
  let all = Apps.App.fence_sites app in
  let initial = List.length all in
  let binary_reduction fences iterations =
    let rec go fences =
      if List.length fences <= 1 then fences
      else begin
        let f1, f2 = split fences in
        if check (diff fences f1) iterations then go (diff fences f1)
        else if check (diff fences f2) iterations then go (diff fences f2)
        else fences
      end
    in
    go fences
  in
  let linear_reduction fences iterations =
    List.fold_left
      (fun kept f ->
        let without = List.filter (fun x -> x <> f) kept in
        if check without iterations then without else kept)
      fences fences
  in
  let rec rounds i n =
    Exec.info
      (Printf.sprintf "hardening %s on %s: round %d (I=%d)"
         app.Apps.App.name chip.Gpusim.Chip.name n i);
    let fb = binary_reduction all i in
    let fl = linear_reduction fb i in
    if check fl cfg.stability_runs then (fl, true, n)
    else if n >= cfg.max_rounds then (fl, false, n)
    else rounds (2 * i) (n + 1)
  in
  let fences, converged, rounds = rounds cfg.initial_iterations 1 in
  (* Zeroed in deterministic-ledger mode: elapsed time would be the only
     nondeterministic field of the hardening result record. *)
  let elapsed_s =
    if Runlog.deterministic_mode () then 0.0
    else Unix.gettimeofday () -. t0
  in
  { app = app.Apps.App.name; chip = chip.Gpusim.Chip.name; initial; fences;
    converged; rounds; checks = !checks; elapsed_s }

(* ------------------------------------------------------------------ *)
(* Ledger codecs                                                        *)

let results =
  let fence =
    Codec.(
      obj (fun kernel site -> (kernel, site))
      |> mem "k" string fst |> mem "s" int snd |> seal)
  in
  Codec.(
    list
      (obj (fun app chip initial fences converged rounds checks elapsed_s ->
           { app; chip; initial; fences; converged; rounds; checks;
             elapsed_s })
      |> mem "app" string (fun r -> r.app)
      |> mem "chip" string (fun r -> r.chip)
      |> mem "initial" int (fun r -> r.initial)
      |> mem "fences" (list fence) (fun r -> r.fences)
      |> mem "converged" bool (fun r -> r.converged)
      |> mem "rounds" int (fun r -> r.rounds)
      |> mem "checks" int (fun r -> r.checks)
      |> mem "elapsed_s" float (fun r -> r.elapsed_s)
      |> seal))
