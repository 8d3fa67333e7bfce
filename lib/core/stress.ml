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

let location_param i = Printf.sprintf "l%d" i

(* One access of the sequence, applied to the register holding this
   thread's scratchpad address. *)
let access_stmt = function
  | Access_seq.Ld -> Gpusim.Kbuild.load "v" (Gpusim.Kbuild.reg "addr")
  | Access_seq.St -> Gpusim.Kbuild.store (Gpusim.Kbuild.reg "addr") (Gpusim.Kbuild.int 1)

let build_kernel ~sequence ~n_locations =
  let open Gpusim.Kbuild in
  let params = "scratch" :: List.init n_locations location_param in
  let select =
    (* addr := scratch + l_(gtid mod n) *)
    def "which" ((tid + (bid * bdim)) mod int n_locations)
    ::
    List.init n_locations (fun i ->
        when_ (reg "which" = int i)
          [ def "addr" (param "scratch" + param (location_param i)) ])
  in
  kernel
    (Printf.sprintf "stress_%s" (Access_seq.to_string sequence))
    ~params
    (select @ [ while_ (int 1) (List.map access_stmt sequence) ])

(* The stress-kernel AST depends only on the access sequence and the
   location count, yet it was rebuilt at every launch; campaigns launch
   millions of times with a handful of distinct shapes.  Memoised under a
   mutex (one lookup per launch — far off the hot path); the AST is
   immutable, so sharing one value across worker domains is safe. *)
let kernel_memo : (string * int, Gpusim.Kernel.t) Hashtbl.t = Hashtbl.create 16
let kernel_mu = Mutex.create ()

let kernel ~sequence ~n_locations =
  if n_locations < 1 then invalid_arg "Stress.kernel: need at least one location";
  let key = (Access_seq.to_string sequence, n_locations) in
  Mutex.lock kernel_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock kernel_mu)
    (fun () ->
      match Hashtbl.find_opt kernel_memo key with
      | Some k -> k
      | None ->
        let k = build_kernel ~sequence ~n_locations in
        Hashtbl.add kernel_memo key k;
        k)

let rand_kernel =
  let open Gpusim.Kbuild in
  kernel "stress_rand" ~params:[ "scratch"; "words" ]
    [ while_ (int 1)
        [ def "r" (Gpusim.Kernel.Rand (param "words" * int 2));
          def "addr" (param "scratch" + (reg "r" / int 2));
          if_
            ((reg "r" mod int 2) = int 0)
            [ load "v" (reg "addr") ]
            [ store (reg "addr") (int 1) ] ] ]

let cache_kernel =
  let open Gpusim.Kbuild in
  kernel "stress_cache" ~params:[ "scratch"; "words" ]
    [ while_ (int 1)
        [ def "i" (int 0);
          while_
            (reg "i" < param "words")
            [ load "v" (param "scratch" + reg "i");
              store (param "scratch" + reg "i") (int 1);
              def "i" (reg "i" + int 1) ] ] ]

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

(* The stress kernel over [locations] and its arguments.  The kernel and
   its location parameter names are looked up once per environment:
   [make_stress_litmus] and [make_stress_app] keep them in a [cell], so a
   launch neither takes [kernel]'s mutex nor formats a name.  A
   strategy's location count never changes, except under [Targeted] on
   another chip.  An [Atomic], not a [Lazy]: campaign drivers share an
   environment across domains, and racing look-ups store equal values. *)
let location_args cell ~sequence ~scratch locations =
  let n = List.length locations in
  let k, names =
    match Atomic.get cell with
    | Some (n', k, names) when n' = n -> (k, names)
    | Some _ | None ->
      let k = kernel ~sequence ~n_locations:n in
      let names = List.init n location_param in
      Atomic.set cell (Some (n, k, names));
      (k, names)
  in
  (k, ("scratch", scratch) :: List.map2 (fun p l -> (p, l)) names locations)

(* Instantiate the spec for a given thread budget. *)
let spec_for cell strategy sim ~n_threads =
  if n_threads <= 0 then None
  else
    let blocks = Int.max 1 (n_threads / stress_block_size) in
    let warmup = warmup_for ~n_threads:(blocks * stress_block_size) in
    let rng = Gpusim.Sim.rng sim in
    let chip = Gpusim.Sim.chip sim in
    match strategy with
    | No_stress -> None
    | Sys { sequence; spread; regions } ->
      let patch = chip.Gpusim.Chip.weakness.patch_size in
      let scratch = Gpusim.Sim.alloc sim (patch * regions) in
      let chosen = Gpusim.Rng.sample_distinct rng spread regions in
      let locations = List.map (fun r -> r * patch) chosen in
      let kernel, args = location_args cell ~sequence ~scratch locations in
      Some
        { Gpusim.Sim.kernel; blocks; block_size = stress_block_size; args;
          period = Access_seq.length sequence; warmup;
          intensity =
            intensity_for ~n_threads:(blocks * stress_block_size)
              ~n_locations:spread }
    | Rand { scratch_words } ->
      let scratch = Gpusim.Sim.alloc sim scratch_words in
      Some
        { Gpusim.Sim.kernel = rand_kernel; blocks;
          block_size = stress_block_size;
          args = [ ("scratch", scratch); ("words", scratch_words) ];
          period = 0; warmup; intensity = 1.0 }
    | Cache ->
      let words = chip.Gpusim.Chip.l2_words in
      let scratch = Gpusim.Sim.alloc sim words in
      Some
        { Gpusim.Sim.kernel = cache_kernel; blocks;
          block_size = stress_block_size;
          args = [ ("scratch", scratch); ("words", words) ];
          period = 0; warmup; intensity = 1.0 }
    | Targeted { sequence; addresses } ->
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
      else begin
        let n = List.length locations in
        let kernel, args = location_args cell ~sequence ~scratch locations in
        Some
          { Gpusim.Sim.kernel; blocks; block_size = stress_block_size; args;
            period = Access_seq.length sequence; warmup;
            intensity =
              intensity_for ~n_threads:(blocks * stress_block_size)
                ~n_locations:n }
      end
    | Fixed { sequence; locations; scratch_words } ->
      let n = List.length locations in
      let scratch = Gpusim.Sim.alloc sim scratch_words in
      let kernel, args = location_args cell ~sequence ~scratch locations in
      Some
        { Gpusim.Sim.kernel; blocks; block_size = stress_block_size; args;
          period = Access_seq.length sequence; warmup;
          intensity =
            intensity_for ~n_threads:(blocks * stress_block_size)
              ~n_locations:n }

let stress_litmus cell strategy sim ~app_grid ~app_block =
  match strategy with
  | No_stress -> None
  | Sys _ | Rand _ | Cache | Fixed _ | Targeted _ ->
    let chip = Gpusim.Sim.chip sim in
    let rng = Gpusim.Sim.rng sim in
    let cap = chip.Gpusim.Chip.max_concurrent in
    let total = Gpusim.Rng.int_in rng (cap / 2) cap in
    let n_threads = total - (app_grid * app_block) in
    (* At least one thread per stressed location (Sec. 3.4). *)
    let floor_threads =
      match strategy with
      | Sys { spread; _ } -> Int.max spread stress_block_size
      | Fixed { locations; _ } ->
        Int.max (List.length locations) stress_block_size
      | Targeted _ | No_stress | Rand _ | Cache -> stress_block_size
    in
    spec_for cell strategy sim ~n_threads:(Int.max floor_threads n_threads)

let make_stress_litmus strategy = stress_litmus (Atomic.make None) strategy

(* Our scaled-down applications launch far fewer threads than the
   originals, so the paper's 15-50%-of-blocks rule alone would yield
   stressing blocks too small to pressure a memory partition at all; the
   floor keeps the stress at the minimum effective strength. *)
let app_stress_floor_threads = 32

let stress_app cell strategy sim ~app_grid ~app_block =
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
    spec_for cell strategy sim ~n_threads

let make_stress_app strategy = stress_app (Atomic.make None) strategy
