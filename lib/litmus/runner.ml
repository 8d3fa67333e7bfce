type outcome = { r1 : int; r2 : int; weak : bool; timed_out : bool }

(* A small device suffices: the communication pair, the observation array,
   and any scratchpad the environment allocates. *)
let device_words = 2048

let litmus_max_ticks = 50_000

(* One execution of [kernel], which is [Test.kernel inst], on a device of
   [words]: a loop over runs looks the kernel up once. *)
let run_kernel ~words ~chip ~seed ~env inst kernel =
  Gpusim.Sim.with_sim ~words ~chip ~seed @@ fun sim ->
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

(* The allocations of [run_kernel] and of its launch's stress set-up. *)
let fits_on ~words ~chip ~env inst =
  inst.Test.distance >= 0
  &&
  let sim = Gpusim.Sim.create ~words ~chip ~seed:0 () in
  match
    ignore (Gpusim.Sim.alloc sim (Test.layout_words inst));
    ignore (Gpusim.Sim.alloc sim 2);
    env.Gpusim.Sim.make_stress sim ~app_grid:2 ~app_block:1
  with
  | _ -> true
  | exception Failure _ -> false

let fits = fits_on ~words:device_words

(* Doubling from [device_words], so a run that fits there keeps its
   device and its bytes. *)
let words_for ~chip ~env insts =
  let fits_all words =
    List.for_all
      (fun inst -> inst.Test.distance < 0 || fits_on ~words ~chip ~env inst)
      insts
  in
  let rec size words = if fits_all words then words else size (2 * words) in
  size device_words

let run_once ~chip ~seed ?(env = Gpusim.Sim.no_environment) inst =
  run_kernel ~words:device_words ~chip ~seed ~env inst (Test.kernel inst)

let count_weak ?(words = device_words) ~chip ~seed
    ?(env = Gpusim.Sim.no_environment) ~runs inst =
  let kernel = Test.kernel inst in
  let master = Gpusim.Rng.create seed in
  let n = ref 0 in
  for _ = 1 to runs do
    let seed = Gpusim.Rng.bits30 master in
    if (run_kernel ~words ~chip ~seed ~env inst kernel).weak then incr n
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
