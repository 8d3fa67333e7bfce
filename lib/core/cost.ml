type measurement = {
  runtime : float;
  energy : float;
  discarded : int;
}

let measure ~chip ~app ~fencing ~runs ~seed =
  let total_runtime = ref 0.0 in
  let total_energy = ref 0.0 in
  let kept = ref 0 in
  let discarded = ref 0 in
  for i = 0 to runs - 1 do
    Gpusim.Sim.with_sim ~chip ~seed:(Gpusim.Rng.subseed seed i) (fun sim ->
        match app.Apps.App.run sim fencing with
        | Ok () ->
          incr kept;
          total_runtime :=
            !total_runtime +. float_of_int (Gpusim.Sim.elapsed_cycles sim);
          total_energy := !total_energy +. Gpusim.Sim.consumed_energy sim
        | Error _ -> incr discarded)
  done;
  let n = float_of_int (Int.max 1 !kept) in
  { runtime = !total_runtime /. n; energy = !total_energy /. n;
    discarded = !discarded }

type point = {
  chip : string;
  app : string;
  nvml : bool;
  no_fences : measurement;
  emp : measurement;
  cons : measurement;
  emp_count : int;
}

(* ------------------------------------------------------------------ *)
(* Ledger codecs                                                        *)

let point =
  let measurement =
    Codec.(
      obj (fun runtime energy discarded -> { runtime; energy; discarded })
      |> mem "runtime" float (fun m -> m.runtime)
      |> mem "energy" float (fun m -> m.energy)
      |> mem "discarded" int (fun m -> m.discarded)
      |> seal)
  in
  Codec.(
    obj (fun chip app nvml no_fences emp cons emp_count ->
        { chip; app; nvml; no_fences; emp; cons; emp_count })
    |> mem "chip" string (fun p -> p.chip)
    |> mem "app" string (fun p -> p.app)
    |> mem "nvml" bool (fun p -> p.nvml)
    |> mem "no_fences" measurement (fun p -> p.no_fences)
    |> mem "emp" measurement (fun p -> p.emp)
    |> mem "cons" measurement (fun p -> p.cons)
    |> mem "emp_count" int (fun p -> p.emp_count)
    |> seal)

let point_codec =
  { Runlog.codec = point;
    errors_of =
      (fun p -> p.no_fences.discarded + p.emp.discarded + p.cons.discarded) }

let points = Codec.list point

let run ?backend ?journal ~chips ~apps ~emp_for ~runs ~seed () =
  (* Plan: one job per (chip, app) benchmark point; the three fencing
     variants inside a job draw sub-seeds 0/1/2 from the job seed. *)
  let grid =
    List.concat_map
      (fun chip -> List.map (fun app -> (chip, app)) apps)
      chips
  in
  Exec.run ?backend ~label:"fence-cost"
    ?journal:(Option.map (fun j -> Runlog.extend j "cost") journal)
    ~quarantine:(fun (chip, app) _ ->
      let zero = { runtime = 0.0; energy = 0.0; discarded = 0 } in
      { chip = chip.Gpusim.Chip.name; app = app.Apps.App.name;
        nvml = chip.Gpusim.Chip.cost.nvml_supported; no_fences = zero;
        emp = zero; cons = zero; emp_count = 0 })
    ~codec:point_codec ~execs_per_job:(3 * runs) ~seed
    ~f:(fun ~seed (chip, app) ->
      let emp_fences = emp_for chip app in
      let m i fencing =
        measure ~chip ~app ~fencing ~runs ~seed:(Gpusim.Rng.subseed seed i)
      in
      { chip = chip.Gpusim.Chip.name; app = app.Apps.App.name;
        nvml = chip.Gpusim.Chip.cost.nvml_supported;
        no_fences = m 0 Apps.App.Stripped;
        emp = m 1 (Apps.App.Sites emp_fences);
        cons = m 2 Apps.App.Conservative;
        emp_count = List.length emp_fences })
    grid

let overhead_pct ~base v = if base <= 0.0 then 0.0 else (v -. base) /. base *. 100.0

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type summary = {
  median_emp_runtime_pct : float;
  median_cons_runtime_pct : float;
  median_emp_energy_pct : float;
  median_cons_energy_pct : float;
  max_emp_runtime_pct : float;
  max_cons_runtime_pct : float;
}

let summarise points =
  let rt_emp =
    List.map (fun p -> overhead_pct ~base:p.no_fences.runtime p.emp.runtime) points
  in
  let rt_cons =
    List.map (fun p -> overhead_pct ~base:p.no_fences.runtime p.cons.runtime) points
  in
  let nvml_points = List.filter (fun p -> p.nvml) points in
  let en_emp =
    List.map (fun p -> overhead_pct ~base:p.no_fences.energy p.emp.energy) nvml_points
  in
  let en_cons =
    List.map (fun p -> overhead_pct ~base:p.no_fences.energy p.cons.energy) nvml_points
  in
  { median_emp_runtime_pct = median rt_emp;
    median_cons_runtime_pct = median rt_cons;
    median_emp_energy_pct = median en_emp;
    median_cons_energy_pct = median en_cons;
    max_emp_runtime_pct = List.fold_left Float.max 0.0 rt_emp;
    max_cons_runtime_pct = List.fold_left Float.max 0.0 rt_cons }
