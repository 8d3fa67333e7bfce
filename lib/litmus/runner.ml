type outcome = { r1 : int; r2 : int; weak : bool; timed_out : bool }

(* A small device suffices: the communication pair, the observation array,
   and any scratchpad the environment allocates. *)
let device_words = 2048

let litmus_max_ticks = 50_000

(* One execution of [kernel], which is [Test.kernel inst]: a loop over
   runs looks it up once. *)
let run_kernel ~chip ~seed ~env inst kernel =
  Gpusim.Sim.with_sim ~words:device_words ~chip ~seed @@ fun sim ->
  Gpusim.Sim.set_environment sim env;
  let x = Gpusim.Sim.alloc sim (Test.layout_words inst) in
  let out = Gpusim.Sim.alloc sim 2 in
  (* Initialise the observed registers to poison so that a timeout cannot
     masquerade as a weak outcome. *)
  Gpusim.Sim.write sim out (-1);
  Gpusim.Sim.write sim (out + 1) (-1);
  let result =
    (* Litmus kernels touch no shared memory, so size the per-block
       shared arrays at one word instead of the 64-word default — two
       app blocks per run, at hundreds of millions of runs. *)
    Gpusim.Sim.launch sim ~max_ticks:litmus_max_ticks ~shared_words:1
      ~grid:2 ~block:1 kernel
      ~args:[ ("x", x); ("out", out) ]
  in
  let r1 = Gpusim.Sim.read sim out in
  let r2 = Gpusim.Sim.read sim (out + 1) in
  let timed_out =
    match result.Gpusim.Sim.outcome with
    | Gpusim.Sim.Finished -> false
    | Gpusim.Sim.Timeout | Gpusim.Sim.Trapped _ -> true
  in
  { r1; r2; weak = (not timed_out) && Test.weak inst ~r1 ~r2; timed_out }

let run_once ~chip ~seed ?(env = Gpusim.Sim.no_environment) inst =
  run_kernel ~chip ~seed ~env inst (Test.kernel inst)

let count_weak ~chip ~seed ?(env = Gpusim.Sim.no_environment) ~runs inst =
  let kernel = Test.kernel inst in
  let master = Gpusim.Rng.create seed in
  let n = ref 0 in
  for _ = 1 to runs do
    let seed = Gpusim.Rng.bits30 master in
    if (run_kernel ~chip ~seed ~env inst kernel).weak then incr n
  done;
  !n

let observed ~chip ~seed ?env ~runs inst =
  let master = Gpusim.Rng.create seed in
  let acc = ref [] in
  for _ = 1 to runs do
    let seed = Gpusim.Rng.bits30 master in
    let o = run_once ~chip ~seed ?env inst in
    if not o.timed_out then acc := (o.r1, o.r2) :: !acc
  done;
  List.sort_uniq compare !acc
