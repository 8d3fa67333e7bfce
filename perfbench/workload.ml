(* What a workload hands the harness.

   A workload is a closed loop with one client: the next operation
   starts only when the previous one has completed.  Its inputs are a
   fixed pool of slots (Table 5 passes, tuning runs, campaign lists)
   whose results are committed in the reference.  A cycle runs every
   slot once, starting at the slot the seed picks, and a phase always
   ends on a cycle boundary: every cycle does the same work, so the
   mix measured does not depend on the seed or on where the clock ran
   out. *)

type op = {
  latency : float;  (** seconds, as the workload defines it *)
  execs : int;  (** simulated executions the operation performed *)
}

type cycle = {
  ops : op list;
  wall : float;
  cpu : float;  (** CPU seconds of every process of the run in the cycle *)
  host : float;
      (** the host's speed just after the cycle ({!Common.host_speed});
          1.0 when the loop does not probe *)
  setup : float list;
      (** set-up samples taken just after the cycle, when the loop probes *)
}

type phase = {
  cycles : cycle list;
  wall : float;  (** the timed loop, start to end *)
}

(* A per-layer figure of the traced phase, for the printed table. *)
type layer = { name : string; value : float; unit_ : string }

type t = {
  setup : unit -> float list;
      (** one-time set-up, done one or more times; seconds per sample *)
  pool : int;  (** slots in the input pool *)
  slot : int -> op list;
      (** run one slot; every result is checked against the reference *)
  run : deadline:float -> phase;
      (** whole cycles until [deadline] (absolute) has passed; records
          spans and artifacts when {!Common.tracing} is on *)
  layers : phase -> layer list;
      (** per-layer figures of a traced phase *)
  rows : unit -> (string * float) list;
      (** self-time rows of the traced phase, seconds each *)
  sample : unit -> Simstats.t * float option;
      (** simulated statistics of a fixed sample of the workload's
          executions, and the host seconds the same executions take
          when they are the workload's own in-process executions *)
  model : phase -> (string * float) list;
      (** fan-out model lines, when the workload has one *)
  sidecars : unit -> string list;
      (** Chrome trace files the program wrote in the traced phase, for
          `gpuwmm trace --merge` *)
  finish : unit -> unit;
      (** stop every process the workload started *)
}

let layer name unit_ value = { name; value; unit_ }

(* The closed loop shared by all workloads: whole cycles until the
   deadline has passed, always finishing the cycle in flight.  Given
   [~setup] and with tracing off, each cycle is followed, outside its
   wall and CPU time, by a probe of the host's speed on [width] cores
   (as many as the workload keeps busy) and by [setup ()]: set-up
   samples spread over the whole run, not bunched at its start, see the
   same mix of host states as the cycles. *)
let loop ?setup ?(width = 1) ~deadline ~cpu ~seed ~pool slot =
  let order = List.init pool (fun i -> (((seed + i) mod pool) + pool) mod pool) in
  let t0 = Common.now () in
  let rec go acc =
    if acc <> [] && Common.now () >= deadline then List.rev acc
    else begin
      let s = Common.now () and c = cpu () in
      let ops = List.concat_map slot order in
      let wall = Common.now () -. s and cpu = cpu () -. c in
      let host, setup =
        match setup with
        | Some f when not !Common.tracing ->
          let s = f () in
          (Common.host_speed ~width, s)
        | _ -> (1.0, [])
      in
      go ({ ops; wall; cpu; host; setup } :: acc)
    end
  in
  let cycles = go [] in
  { cycles; wall = Common.now () -. t0 }

let ops p = List.concat_map (fun (c : cycle) -> c.ops) p.cycles

let execs ops = List.fold_left (fun n o -> n + o.execs) 0 ops

(* Every cycle does the same work, so cycles differ only by what the
   host did to them.  A run's figure is the median over its cycles, so a
   burst of load from outside the run spoils a few cycles, not the
   figure.  With [~host:true] each cycle's figure is first brought to
   the reference host speed with the probe taken just after it (see
   hostspeed.ml): a rate divided by the speed, a time multiplied by it. *)
let speed ~host (c : cycle) = if host then c.host else 1.0

let cycle_rates ?(host = false) p =
  List.map
    (fun (c : cycle) ->
      Common.safe_div (float_of_int (execs c.ops)) c.wall /. speed ~host c)
    p.cycles

(* Executions per host second. *)
let execs_per_s ?host p = Stats.median (cycle_rates ?host p)

(* CPU seconds per operation. *)
let cpu_per_op ?(host = false) p =
  Stats.median
    (List.map
       (fun (c : cycle) ->
         Common.safe_div c.cpu (float_of_int (List.length c.ops)) *. speed ~host c)
       p.cycles)

(* The median latency of the phase's single operations (campaigns). *)
let latency_p50 ?(host = false) p =
  Stats.median
    (List.concat_map
       (fun (c : cycle) -> List.map (fun o -> o.latency *. speed ~host c) c.ops)
       p.cycles)

(* The host's speed over the phase: the median of its probes. *)
let host_speed p = Stats.median (List.map (fun (c : cycle) -> c.host) p.cycles)
