type cell = {
  app : string;
  errors : int;
  runs : int;
  example : string;
  histogram : (string * int) list;
  quarantined : string option;
}

type row = {
  chip : string;
  environment : string;
  cells : cell list;
  capable : int;
  effective : int;
}

let effectiveness_threshold = 0.05

let runs_counter = Telemetry.counter "campaign.runs"
let errors_counter = Telemetry.counter "campaign.errors"

let test_app ~chip ~env ~app ~runs ~seed =
  let errors = ref 0 in
  let example = ref "" in
  let counts = Hashtbl.create 7 in
  Telemetry.add runs_counter runs;
  let sim_env = Environment.for_app env in
  for i = 0 to runs - 1 do
    Gpusim.Sim.with_sim ~chip ~seed:(Gpusim.Rng.subseed seed i) (fun sim ->
        Gpusim.Sim.set_environment sim sim_env;
        match app.Apps.App.run sim Apps.App.Original with
        | Ok () -> ()
        | Error msg ->
          (* An erroneous run that saw injected bit-flips is tagged so the
             histogram separates soft errors from weak-memory failures:
             [soft-error] when no reordering happened (the flip is the only
             possible cause), [soft-error?] when both occurred. *)
          let msg =
            if Gpusim.Sim.bitflips sim = 0 then msg
            else if Gpusim.Sim.reorders sim = 0 then msg ^ " [soft-error]"
            else msg ^ " [soft-error?]"
          in
          incr errors;
          Telemetry.incr errors_counter;
          if !example = "" then example := msg;
          Hashtbl.replace counts msg
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts msg)))
  done;
  let histogram =
    Hashtbl.fold (fun msg n acc -> (msg, n) :: acc) counts []
    |> List.sort (fun (m1, n1) (m2, n2) ->
           match Int.compare n2 n1 with
           | 0 -> String.compare m1 m2
           | c -> c)
  in
  { app = app.Apps.App.name; errors = !errors; runs; example = !example;
    histogram; quarantined = None }

let dominant cell =
  match cell.histogram with [] -> None | top :: _ -> Some top

let merge_histograms hs =
  let counts = Hashtbl.create 7 in
  List.iter
    (List.iter (fun (msg, n) ->
         Hashtbl.replace counts msg
           (n + Option.value ~default:0 (Hashtbl.find_opt counts msg))))
    hs;
  Hashtbl.fold (fun msg n acc -> (msg, n) :: acc) counts []
  |> List.sort (fun (m1, n1) (m2, n2) ->
         match Int.compare n2 n1 with 0 -> String.compare m1 m2 | c -> c)

let summarise_names ~chip ~env cells =
  let capable = List.length (List.filter (fun c -> c.errors > 0) cells) in
  let effective =
    List.length
      (List.filter
         (fun c ->
           float_of_int c.errors
           > effectiveness_threshold *. float_of_int c.runs)
         cells)
  in
  { chip; environment = env; cells; capable; effective }

let summarise ~chip ~env cells =
  summarise_names ~chip:chip.Gpusim.Chip.name ~env:env.Environment.label cells

(* Rebuild the reduced row list from a flat plan-order cell list — what
   `gpuwmm merge` uses to reconstruct a merged ledger's result record
   without re-running anything.  Row nesting matches [run]'s plan:
   chips x envs, [apps_per_row] cells each. *)
let rows_of_cells ~chips ~envs ~apps_per_row cells =
  let expect = List.length chips * List.length envs * apps_per_row in
  if apps_per_row <= 0 then Error "rows_of_cells: no applications in grid"
  else if List.length cells <> expect then
    Error
      (Printf.sprintf "rows_of_cells: %d cell(s) for a %d-cell grid"
         (List.length cells) expect)
  else
    let rec take n acc cells =
      if n = 0 then (List.rev acc, cells)
      else
        match cells with
        | [] -> assert false (* length checked above *)
        | c :: cells -> take (n - 1) (c :: acc) cells
    in
    let rows, rest =
      List.fold_left
        (fun (acc, cells) chip ->
          List.fold_left
            (fun (acc, cells) env ->
              let row_cells, cells = take apps_per_row [] cells in
              (summarise_names ~chip ~env row_cells :: acc, cells))
            (acc, cells) envs)
        ([], cells) chips
    in
    assert (rest = []);
    Ok (List.rev rows)

(* ------------------------------------------------------------------ *)
(* Ledger codecs                                                        *)

let histogram =
  Codec.(
    list
      (obj (fun msg n -> (msg, n))
      |> mem "msg" string fst |> mem "n" int snd |> seal))

(* [quarantined] is omitted at [None] so fault-free ledgers stay
   byte-identical with older ones (the golden CI ledger cmp-checks
   this). *)
let cell =
  Codec.(
    obj (fun app errors runs example histogram quarantined ->
        { app; errors; runs; example; histogram; quarantined })
    |> mem "app" string (fun c -> c.app)
    |> mem "errors" int (fun c -> c.errors)
    |> mem "runs" int (fun c -> c.runs)
    |> mem "example" string (fun c -> c.example)
    |> mem "histogram" histogram (fun c -> c.histogram)
    |> opt "quarantined" string (fun c -> c.quarantined)
    |> seal)

let cell_to_json = Codec.encode cell
let cell_codec = { Runlog.codec = cell; errors_of = (fun c -> c.errors) }

let rows =
  Codec.(
    list
      (obj (fun chip environment cells capable effective ->
           { chip; environment; cells; capable; effective })
      |> mem "chip" string (fun r -> r.chip)
      |> mem "environment" string (fun r -> r.environment)
      |> mem "cells" (list cell) (fun r -> r.cells)
      |> mem "capable" int (fun r -> r.capable)
      |> mem "effective" int (fun r -> r.effective)
      |> seal))

let rows_to_json = Codec.encode rows
let rows_of_json = Codec.decode rows

let run ?backend ?journal ~chips ~environments_for ~apps ~runs ~seed () =
  (* Plan: one job per (chip, environment, application) cell, flattened in
     the historical nesting order so pre-derived job seeds match what the
     former sequential loop drew from its master generator. *)
  let plan_rows =
    List.concat_map
      (fun chip ->
        List.map (fun env -> (chip, env)) (environments_for chip))
      chips
  in
  let grid =
    List.concat_map
      (fun (chip, env) -> List.map (fun app -> (chip, env, app)) apps)
      plan_rows
  in
  let cells =
    Exec.run ?backend ~label:"campaign" ~execs_per_job:runs
      ?journal:(Option.map (fun j -> Runlog.extend j "campaign") journal)
      ~codec:cell_codec ~seed
      ~quarantine:(fun (_, _, app) (fl : Exec.failure) ->
        { app = app.Apps.App.name; errors = 0; runs = 0; example = "";
          histogram = []; quarantined = Some fl.Exec.f_reason })
        (* Cells are independent, so a k/N shard can skip the cells it
           does not own outright; the placeholder rows a shard's reduce
           produces are discarded (a shard ledger records no result). *)
      ~shard_placeholder:(fun (_, _, app) ->
        { app = app.Apps.App.name; errors = 0; runs = 0; example = "";
          histogram = []; quarantined = None })
      ~f:(fun ~seed (chip, env, app) -> test_app ~chip ~env ~app ~runs ~seed)
      grid
  in
  (* Reduce: regroup the flat cell list row by row, in plan order. *)
  let per_row = List.length apps in
  let rec rows acc plan cells =
    match plan with
    | [] -> List.rev acc
    | (chip, env) :: plan ->
      let rec take n acc cells =
        if n = 0 then (List.rev acc, cells)
        else
          match cells with
          | [] -> invalid_arg "Campaign.run: short cell list"
          | c :: cells -> take (n - 1) (c :: acc) cells
      in
      let row_cells, cells = take per_row [] cells in
      rows (summarise ~chip ~env row_cells :: acc) plan cells
  in
  rows [] plan_rows cells

let sys_tuned_for chip = Tuning.shipped ~chip

let environments chip = Environment.all ~tuned:(Tuning.shipped ~chip)

let environment ~chip label =
  List.find_opt (fun e -> e.Environment.label = label) (environments chip)

let test_grid ~chip ~env ~apps ~runs =
  let strs l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Assoc
    [ ("chips", strs [ chip ]); ("envs", strs [ env ]); ("apps", strs apps);
      ("runs", Json.Int runs) ]
