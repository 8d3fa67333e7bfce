(* What the traced run reads from files the program already writes
   (heartbeat sidecars, shard-ledger job records), and the fan-out
   model built on them. *)

type beats = {
  first : float;  (** wall clock of the stream's first beat *)
  final : float;  (** wall clock of its last beat *)
  count : int;
  respawns : int;
  minor_words : float;  (** of the last beat: the process's total *)
  major_collections : int;
}

let beats path =
  match Core.Heartbeat.load path with
  | [] -> None
  | first :: _ as rs ->
    let last = List.nth rs (List.length rs - 1) in
    Some
      { first = first.Core.Heartbeat.t; final = last.Core.Heartbeat.t;
        count = List.length rs;
        respawns = List.fold_left (fun m r -> max m r.Core.Heartbeat.respawns) 0 rs;
        minor_words = last.Core.Heartbeat.minor_words;
        major_collections = last.Core.Heartbeat.major_collections }

(* Job records of some ledgers: (count, summed duration_s). *)
let job_time paths =
  List.fold_left
    (fun (n, t) path ->
      match Core.Runlog.load path with
      | Error _ -> (n, t)
      | Ok l ->
        List.fold_left
          (fun (n, t) j -> (n + 1, t +. j.Core.Runlog.duration_s))
          (n, t) l.Core.Runlog.jobs)
    (0, 0.0) paths

(* The slower shard's simulated work: each cell's runs at the host
   seconds one execution of it takes on this core through
   Campaign.test_app, the table5 method. *)
let shard_work (c : Campaigns.t) =
  let costs =
    Array.of_list
      (List.map
         (fun (chip, env, app, seed) ->
           let t0 = Unix.gettimeofday () in
           ignore (Core.Campaign.test_app ~chip ~env ~app ~runs:1 ~seed);
           Unix.gettimeofday () -. t0)
         (Campaigns.cells c))
  in
  List.fold_left max 0.0
    (List.map
       (fun k ->
         List.fold_left
           (fun acc i -> acc +. (float_of_int c.runs *. costs.(i)))
           0.0 (Campaigns.shard_indices ~k))
       [ 1; 2 ])

(* The fan-out model over (at most) six traced campaigns: each one's
   latency predicted as the measured fixed cost per campaign plus the
   slower shard's work; executions per second predicted and observed
   over the same campaigns. *)
let model ~fixed ~fixed_name observed =
  let sample = List.filteri (fun i _ -> i < 6) observed in
  let execs = float_of_int (List.fold_left (fun a (c, _) -> a + Campaigns.execs c) 0 sample) in
  let work = List.map (fun (c, _) -> shard_work c) sample in
  let predicted = Common.sum (List.map (fun w -> fixed +. w) work) in
  [ ("campaigns modelled", float_of_int (List.length sample));
    (fixed_name ^ " per campaign (s)", fixed);
    ("slower-shard work per campaign (s)", Common.mean_or_zero work);
    ("predicted execs_per_s", Common.safe_div execs predicted);
    ("observed execs_per_s", Common.safe_div execs (Common.sum (List.map snd sample))) ]
