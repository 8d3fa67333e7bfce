type scored = {
  sequence : Access_seq.t;
  scores : (Litmus.Test.idiom * int) list;
  total : int;
}

type result = {
  table : scored list;
  winner : Access_seq.t;
  patch : int;
}

let region_starts ~patch ~max_location =
  let rec go l acc = if l >= max_location then List.rev acc else go (l + patch) (l :: acc) in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Ledger codecs                                                        *)

let sequence =
  Codec.conv Access_seq.to_string
    (fun s ->
      Option.to_result ~none:"expected an access sequence string"
        (Access_seq.of_string s))
    Codec.string

let result =
  let scored =
    Codec.(
      obj (fun sequence total scores -> { sequence; scores; total })
      |> mem "seq" sequence (fun s -> s.sequence)
      |> mem "total" int (fun s -> s.total)
      |> mem "scores" Patch_finder.scores (fun s -> s.scores)
      |> seal)
  in
  Codec.(
    obj (fun patch winner table -> { table; winner; patch })
    |> mem "patch" int (fun r -> r.patch)
    |> mem "winner" sequence (fun r -> r.winner)
    |> mem "table" (list scored) (fun r -> r.table)
    |> seal)

let run ?backend ?journal ~chip ~seed ~budget ~patch () =
  let b = budget in
  let locations = region_starts ~patch ~max_location:b.Budget.max_location in
  let sequences = Access_seq.all ~max_len:b.Budget.seq_max_len in
  (* Plan: one job per (sequence, idiom, distance, location) point, in
     the historical nesting order so job seeds match the former loop. *)
  let points =
    List.concat_map
      (fun sequence ->
        List.concat_map
          (fun idiom ->
            List.concat_map
              (fun distance ->
                List.map
                  (fun location -> (sequence, idiom, distance, location))
                  locations)
              b.Budget.distances_seq)
          Litmus.Test.idioms)
      sequences
  in
  let weaks =
    Exec.run ?backend
      ~label:(Printf.sprintf "sequence finding on %s" chip.Gpusim.Chip.name)
      ?journal:(Option.map (fun j -> Runlog.extend j "seq") journal)
      ~quarantine:(fun _ _ -> 0)
      ~codec:Runlog.int_codec ~execs_per_job:b.Budget.runs_seq ~seed
      ~f:(fun ~seed (sequence, idiom, distance, location) ->
        let strategy =
          Stress.Fixed
            { sequence; locations = [ location ];
              scratch_words = b.Budget.max_location }
        in
        let env =
          Environment.for_litmus (Environment.make strategy ~randomise:false)
        in
        Litmus.Runner.count_weak ~chip ~seed ~env ~runs:b.Budget.runs_seq
          { Litmus.Test.idiom; distance })
      points
  in
  (* Reduce: fold the flat weak counts back into per-sequence scores by
     walking the same nesting. *)
  let results = Array.of_list weaks in
  let pos = ref 0 in
  let next () =
    let v = results.(!pos) in
    incr pos;
    v
  in
  let table =
    List.map
      (fun sequence ->
        let scores =
          List.map
            (fun idiom ->
              let score = ref 0 in
              List.iter
                (fun _distance ->
                  List.iter (fun _location -> score := !score + next ())
                    locations)
                b.Budget.distances_seq;
              (idiom, !score))
            Litmus.Test.idioms
        in
        let total = List.fold_left (fun acc (_, s) -> acc + s) 0 scores in
        { sequence; scores; total })
      sequences
  in
  let score_array s = Array.of_list (List.map snd s.scores) in
  let winner =
    match
      Pareto.select ~scores:score_array
        ~tie:(fun a b -> Access_seq.compare a.sequence b.sequence)
        table
    with
    | Some s -> s.sequence
    | None -> [ Access_seq.Ld; Access_seq.St ]
  in
  let table =
    List.sort (fun a b -> Int.compare b.total a.total) table
  in
  { table; winner; patch }

let rank_for result idiom =
  let rows =
    List.map
      (fun s ->
        let score = List.assoc idiom s.scores in
        (s.sequence, score))
      result.table
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  List.mapi (fun i (seq, score) -> (i + 1, seq, score)) rows
