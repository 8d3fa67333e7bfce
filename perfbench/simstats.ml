(* Simulated statistics of a fixed sample of executions, counted on the
   devices the program's own code runs on.  The counts depend only on
   the sample: a performance-only change must leave them exactly as they
   were, and the harness checks them against the committed reference.

   A Sim.environment's make_stress is called at the start of every
   launch with the device the launch runs on, so an environment wrapped
   by [observing] attaches a trace subscriber to whatever device the
   code under test borrowed.  Litmus executions go through
   Litmus.Runner.run_once itself.  Application executions repeat
   Campaign.test_app's per-run body (test_app builds its environment
   internally, so it cannot be wrapped); every such sample is then run
   again through Campaign.test_app with a Sim.set_poll_hook counter, and
   the scheduler's poll count (one per 1024 ticks of a launch) must
   equal the one the subscribed launches imply, or the run fails. *)

open Gpusim

type t = {
  mutable launches : int;
  mutable ticks : int;
  mutable commits : int;
  mutable reorders : int;
  mutable stall : int;
  mutable polls : int;  (** sum over launches of ticks / 1024 *)
}

let zero () = { launches = 0; ticks = 0; commits = 0; reorders = 0; stall = 0; polls = 0 }

let to_list s =
  [ ("sim.launches", s.launches); ("sim.ticks", s.ticks);
    ("memsys.commits", s.commits); ("memsys.reorders", s.reorders);
    ("memsys.fence_stall_ticks", s.stall) ]

let observer acc ~tick:_ = function
  | Trace.Launch_end { metrics; _ } ->
    let get k = Option.value ~default:0 (List.assoc_opt k metrics) in
    acc.launches <- acc.launches + 1;
    acc.ticks <- acc.ticks + get "ticks";
    acc.polls <- acc.polls + (get "ticks" / 1024);
    acc.reorders <- acc.reorders + get "reorder";
    acc.stall <- acc.stall + get "stall"
  | Trace.Commit _ -> acc.commits <- acc.commits + 1
  | _ -> ()

(* [env] with a subscriber attached to the launching device, once per
   borrow: Sim.reset drops subscribers, so a device without one is a
   fresh execution. *)
let observing acc (env : Sim.environment) =
  { env with
    make_stress =
      (fun sim ~app_grid ~app_block ->
        let tr = Sim.trace sim in
        if not (Trace.active tr) then ignore (Trace.subscribe tr (observer acc));
        env.make_stress sim ~app_grid ~app_block) }

(* Scheduler polls while [f] runs. *)
let count_polls f =
  let n = ref 0 in
  Sim.set_poll_hook (Some (fun () -> incr n));
  Fun.protect ~finally:(fun () -> Sim.set_poll_hook None) f;
  !n

(* One application execution per cell, at the seed test_app gives the
   cell's first run; also the host seconds the same executions take
   through Campaign.test_app. *)
let app_sample cells =
  let acc = zero () in
  List.iter
    (fun (chip, env, app, cell_seed) ->
      Sim.with_sim ~chip ~seed:(Rng.subseed cell_seed 0) (fun sim ->
          Sim.set_environment sim (observing acc (Core.Environment.for_app env));
          ignore (app.Apps.App.run sim Apps.App.Original)))
    cells;
  let seconds = ref 0.0 in
  let polls =
    count_polls (fun () ->
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun (chip, env, app, cell_seed) ->
            ignore (Core.Campaign.test_app ~chip ~env ~app ~runs:1 ~seed:cell_seed))
          cells;
        seconds := Unix.gettimeofday () -. t0)
  in
  if polls <> acc.polls then
    Common.fail
      "simulated-statistics sample: Campaign.test_app polled %d times, the \
       sampled launches imply %d"
      polls acc.polls;
  (acc, !seconds)

let litmus_sample ~chip ~env runs =
  let acc = zero () in
  let env = observing acc env in
  List.iter (fun (inst, seed) -> ignore (Litmus.Runner.run_once ~chip ~seed ~env inst)) runs;
  acc

(* Host seconds per Sim.with_sim borrow (a reset of the recycled device)
   of [words] words, the set-up every execution pays. *)
let borrow_s ~chip ~words =
  let n = 2000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    Sim.with_sim ~words ~chip ~seed:i ignore
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n
