type point = {
  spread : int;
  scores : (Litmus.Test.idiom * int) list;
}

type result = {
  points : point list;
  winner : int;
  sequence : Access_seq.t;
  patch : int;
}

(* ------------------------------------------------------------------ *)
(* Ledger codecs                                                        *)

let result =
  let point =
    Codec.(
      obj (fun spread scores -> { spread; scores })
      |> mem "spread" int (fun p -> p.spread)
      |> mem "scores" Patch_finder.scores (fun p -> p.scores)
      |> seal)
  in
  Codec.(
    obj (fun patch sequence winner points ->
        { points; winner; sequence; patch })
    |> mem "patch" int (fun r -> r.patch)
    |> mem "sequence" Seq_finder.sequence (fun r -> r.sequence)
    |> mem "winner" int (fun r -> r.winner)
    |> mem "points" (list point) (fun r -> r.points)
    |> seal)

let run ?backend ?journal ~chip ~seed ~budget ~patch ~sequence () =
  let b = budget in
  let spreads =
    let rec go m acc =
      if m > b.Budget.max_spread then List.rev acc
      else go (m + b.Budget.spread_step) (m :: acc)
    in
    go 1 []
  in
  (* Plan: one job per (spread, idiom, distance) point, in the historical
     nesting order so job seeds match the former loop. *)
  let grid =
    List.concat_map
      (fun spread ->
        List.concat_map
          (fun idiom ->
            List.map
              (fun distance -> (spread, idiom, distance))
              b.Budget.distances_spread)
          Litmus.Test.idioms)
      spreads
  in
  let weaks =
    Exec.run ?backend
      ~label:(Printf.sprintf "spread finding on %s" chip.Gpusim.Chip.name)
      ?journal:(Option.map (fun j -> Runlog.extend j "spread") journal)
      ~quarantine:(fun _ _ -> 0)
      ~codec:Runlog.int_codec ~execs_per_job:b.Budget.runs_spread ~seed
      ~f:(fun ~seed (spread, idiom, distance) ->
        let strategy =
          Stress.Sys { sequence; spread; regions = b.Budget.max_spread }
        in
        let env =
          Environment.for_litmus (Environment.make strategy ~randomise:false)
        in
        Litmus.Runner.count_weak ~chip ~seed ~env ~runs:b.Budget.runs_spread
          { Litmus.Test.idiom; distance })
      grid
  in
  (* Reduce: sum weak counts per (spread, idiom) along the plan order. *)
  let results = Array.of_list weaks in
  let pos = ref 0 in
  let next () =
    let v = results.(!pos) in
    incr pos;
    v
  in
  let points =
    List.map
      (fun spread ->
        let scores =
          List.map
            (fun idiom ->
              let score = ref 0 in
              List.iter
                (fun _distance -> score := !score + next ())
                b.Budget.distances_spread;
              (idiom, !score))
            Litmus.Test.idioms
        in
        { spread; scores })
      spreads
  in
  let score_array p = Array.of_list (List.map snd p.scores) in
  let winner =
    match
      Pareto.select ~scores:score_array
        ~tie:(fun a b -> Int.compare a.spread b.spread)
        points
    with
    | Some p -> p.spread
    | None -> 2
  in
  { points; winner; sequence; patch }
