type tuned = {
  sequence : Access_seq.t;
  spread : int;
  regions : int;
}

type t =
  | No_stress
  | Sys of tuned
  | Rand of { scratch_words : int }
  | Cache
  | Fixed of {
      sequence : Access_seq.t;
      locations : int list;
      scratch_words : int;
    }
  | Targeted of {
      sequence : Access_seq.t;
      addresses : int list;
    }

let name = function
  | No_stress -> "no-str"
  | Sys _ -> "sys-str"
  | Rand _ -> "rand-str"
  | Cache -> "cache-str"
  | Fixed _ -> "fixed-str"
  | Targeted _ -> "tgt-str"

let default_warmup = 250

(* Each stressing thread runs a short prologue (location selection) before
   its loop; the warmup must cover that debt plus the contention
   build-up. *)
let warmup_for ~n_threads = default_warmup + (3 * n_threads)

let stress_block_size = 8

(* Threads needed to sustain full parallel pressure on one location; with
   fewer, the location's pressure scales down (this is what makes large
   spreads counter-productive, Fig. 4). *)
let threads_per_location_full = 16

let intensity_for ~n_threads ~n_locations =
  let per_loc = float_of_int n_threads /. float_of_int n_locations in
  let s = per_loc /. float_of_int threads_per_location_full in
  let s = Float.max 0.1 (Float.min 1.0 s) in
  (* Quadratic: a location's parallel pressure collapses quickly once it
     is under-provisioned, which is what carves the U-shape of Fig. 4. *)
  float_of_int n_locations *. (s *. s)

(* The access kinds of a strategy's sequence, built once per environment
   (an empty array for the strategies without one): every launch's
   [Sim.sequence] shares it, across domains too, since nothing writes
   it. *)
let kinds_of = function
  | Sys { sequence; _ } | Fixed { sequence; _ } | Targeted { sequence; _ } ->
    Array.of_list
      (List.map (function Access_seq.Ld -> `Load | Access_seq.St -> `Store)
         sequence)
  | No_stress | Rand _ | Cache -> [||]

(* A sequence schedule over [locations], offsets into the scratchpad at
   [scratch]. *)
let sequence kinds ~scratch locations =
  Gpusim.Sim.sequence kinds
    ~locations:(Array.of_list (List.map (fun l -> scratch + l) locations))

(* Instantiate the spec for a given thread budget. *)
let spec_for kinds strategy sim ~n_threads =
  if n_threads <= 0 then None
  else
    let blocks = Int.max 1 (n_threads / stress_block_size) in
    let n_threads = blocks * stress_block_size in
    let spec schedule ~intensity =
      Some
        { Gpusim.Sim.schedule; blocks; block_size = stress_block_size;
          warmup = warmup_for ~n_threads; intensity }
    in
    let rng = Gpusim.Sim.rng sim in
    let chip = Gpusim.Sim.chip sim in
    match strategy with
    | No_stress -> None
    | Sys { spread; regions; _ } ->
      let patch = chip.Gpusim.Chip.weakness.patch_size in
      let scratch = Gpusim.Sim.alloc sim (patch * regions) in
      let chosen = Gpusim.Rng.sample_distinct rng spread regions in
      spec
        (sequence kinds ~scratch (List.map (fun r -> r * patch) chosen))
        ~intensity:(intensity_for ~n_threads ~n_locations:spread)
    | Rand { scratch_words } ->
      let scratch = Gpusim.Sim.alloc sim scratch_words in
      spec (Gpusim.Sim.random ~scratch ~words:scratch_words) ~intensity:1.0
    | Cache ->
      let words = chip.Gpusim.Chip.l2_words in
      let scratch = Gpusim.Sim.alloc sim words in
      spec (Gpusim.Sim.sweep ~scratch ~words) ~intensity:1.0
    | Targeted { addresses; _ } ->
      (* Stress the partitions of the detected communication locations:
         the scratchpad covers one full partition cycle, and each target
         address is mapped to the scratchpad offset in the same
         partition. *)
      let w = chip.Gpusim.Chip.weakness in
      let patch = w.patch_size in
      let cycle = patch * w.n_partitions in
      let scratch = Gpusim.Sim.alloc sim cycle in
      let scratch_part = Gpusim.Chip.partition chip scratch in
      let loc_for addr =
        let p = Gpusim.Chip.partition chip addr in
        (p - scratch_part + w.n_partitions) mod w.n_partitions * patch
      in
      let locations = List.sort_uniq compare (List.map loc_for addresses) in
      if locations = [] then None
      else
        spec
          (sequence kinds ~scratch locations)
          ~intensity:
            (intensity_for ~n_threads ~n_locations:(List.length locations))
    | Fixed { locations; scratch_words; _ } ->
      let scratch = Gpusim.Sim.alloc sim scratch_words in
      spec
        (sequence kinds ~scratch locations)
        ~intensity:
          (intensity_for ~n_threads ~n_locations:(List.length locations))

let stress_litmus kinds strategy sim ~app_grid ~app_block =
  match strategy with
  | No_stress -> None
  | Sys _ | Rand _ | Cache | Fixed _ | Targeted _ ->
    let chip = Gpusim.Sim.chip sim in
    let rng = Gpusim.Sim.rng sim in
    let cap = chip.Gpusim.Chip.max_concurrent in
    let total = Gpusim.Rng.int_in rng (cap / 2) cap in
    let n_threads = total - (app_grid * app_block) in
    (* At least one thread per stressed location (Sec. 3.4), rounded up
       to whole blocks: [spec_for] launches whole blocks only. *)
    let n_locations =
      match strategy with
      | Sys { spread; _ } -> spread
      | Fixed { locations; _ } -> List.length locations
      | Targeted _ | No_stress | Rand _ | Cache -> 0
    in
    let floor_threads =
      Int.max stress_block_size
        ((n_locations + stress_block_size - 1)
        / stress_block_size * stress_block_size)
    in
    spec_for kinds strategy sim ~n_threads:(Int.max floor_threads n_threads)

let make_stress_litmus strategy = stress_litmus (kinds_of strategy) strategy

(* Our scaled-down applications launch far fewer threads than the
   originals, so the paper's 15-50%-of-blocks rule alone would yield
   stressing blocks too small to pressure a memory partition at all; the
   floor keeps the stress at the minimum effective strength. *)
let app_stress_floor_threads = 32

let stress_app kinds strategy sim ~app_grid ~app_block =
  match strategy with
  | No_stress -> None
  | Sys _ | Rand _ | Cache | Fixed _ | Targeted _ ->
    let rng = Gpusim.Sim.rng sim in
    let lo = Int.max 1 (app_grid * 15 / 100) in
    let hi = Int.max lo (app_grid / 2) in
    let blocks = Gpusim.Rng.int_in rng lo hi in
    let n_threads =
      Int.max app_stress_floor_threads (blocks * app_block)
    in
    spec_for kinds strategy sim ~n_threads

let make_stress_app strategy = stress_app (kinds_of strategy) strategy
