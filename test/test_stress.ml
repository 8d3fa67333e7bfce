(* Stressing strategies and environments. *)

let seq_stld = [ Core.Access_seq.St; Core.Access_seq.Ld ]

(* ------------------------------------------------------------------ *)
(* The reference: the stress kernels each schedule stands for           *)

let location_param i = Printf.sprintf "l%d" i

(* The tuned loop: each thread picks one of [n_locations] location
   parameters by global thread id and applies the sequence to it in an
   endless loop. *)
let sequence_kernel ~sequence ~n_locations =
  let open Gpusim.Kbuild in
  let access = function
    | Core.Access_seq.Ld -> load "v" (reg "addr")
    | Core.Access_seq.St -> store (reg "addr") (int 1)
  in
  let select =
    def "which" ((tid + (bid * bdim)) mod int n_locations)
    ::
    List.init n_locations (fun i ->
        when_ (reg "which" = int i)
          [ def "addr" (param "scratch" + param (location_param i)) ])
  in
  kernel "stress_seq"
    ~params:("scratch" :: List.init n_locations location_param)
    (select @ [ while_ (int 1) (List.map access sequence) ])

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

let stress_block = 8

(* Step thread [thread] (two blocks of [stress_block]) of [kernel]
   through its compiled ops alone for [ticks] ticks: a jump is free,
   every other op is one tick, and [Rand] draws from [mem]'s stream.  A
   tick's boundary flag is the former scheduler's: the first access of
   every [period] accesses, none when [period] is 0.  [f] sees each
   tick's event after the tick. *)
let reference_ticks mem kernel ~args ~period ~thread ticks f =
  let code = Gpusim.Code.compile kernel in
  let ctx = Gpusim.Code.make_ctx ~gid:thread ~mem in
  Gpusim.Code.arm ctx code ~params:(Gpusim.Code.bind code args)
    ~l_tid:(thread mod stress_block) ~l_bid:(thread / stress_block)
    ~l_bdim:stress_block ~l_gdim:2 ~shared:[| 0 |];
  let pc = ref 0 and accesses = ref 0 in
  let access kind a =
    let boundary = period > 0 && !accesses mod period = 0 in
    incr accesses;
    Gpusim.Sim.Access { kind; addr = a; boundary }
  in
  for _ = 1 to ticks do
    let rec fetch p =
      match code.Gpusim.Code.ops.(p) with
      | Gpusim.Code.Ojump target -> fetch target
      | op -> (p, op)
    in
    let p, op = fetch !pc in
    pc := p + 1;
    f
      (match op with
      | Gpusim.Code.Oassign (i, e) ->
        Gpusim.Code.set_reg ctx i (e ctx);
        Gpusim.Sim.Idle
      | Gpusim.Code.Ojz (e, target) ->
        if e ctx = 0 then pc := target;
        Gpusim.Sim.Idle
      | Gpusim.Code.Oload { dst; addr; _ } ->
        let a = addr ctx in
        Gpusim.Code.set_reg ctx dst 0;
        access `Load a
      | Gpusim.Code.Ostore { addr; value; _ } ->
        ignore (value ctx : int);
        access `Store (addr ctx)
      | _ -> Alcotest.fail "a stress kernel runs no other op")
  done

(* The two streams are at the same position when their next draws
   agree. *)
let same_position r1 r2 =
  Int64.equal
    (Gpusim.Rng.int64 (Gpusim.Rng.copy r1))
    (Gpusim.Rng.int64 (Gpusim.Rng.copy r2))

let pp_event ppf = function
  | Gpusim.Sim.Idle -> Fmt.string ppf "idle"
  | Gpusim.Sim.Access { kind; addr; boundary } ->
    Fmt.pf ppf "%s %d%s"
      (match kind with `Load -> "load" | `Store -> "store")
      addr
      (if boundary then " (boundary)" else "")

(* Thread [thread] of [schedule], against the same thread of [kernel],
   tick for tick from seed [seed]: the event and the random stream's
   position after every tick. *)
let check_ticks what ~seed ~thread ~ticks schedule kernel ~args ~period =
  let chip = Gpusim.Chip.k20 in
  let ref_rng = Gpusim.Rng.create seed in
  let mem = Gpusim.Memsys.create ~chip ~rng:ref_rng ~words:16 ~nthreads:0 in
  let expected = ref [] in
  reference_ticks mem kernel ~args ~period ~thread ticks (fun ev ->
      expected := (ev, Gpusim.Rng.copy ref_rng) :: !expected);
  let sim = Gpusim.Sim.create ~words:16 ~chip ~seed () in
  let expected = ref (List.rev !expected) in
  let tick = ref 0 in
  Gpusim.Sim.stress_ticks sim schedule ~thread ticks (fun ev ->
      incr tick;
      match !expected with
      | [] -> assert false
      | (want, rng) :: rest ->
        expected := rest;
        if ev <> want then
          Alcotest.failf "%s, thread %d, tick %d: schedule %a, kernel %a" what
            thread !tick pp_event ev pp_event want;
        if not (same_position (Gpusim.Sim.rng sim) rng) then
          Alcotest.failf "%s, thread %d, tick %d: the random streams part"
            what thread !tick);
  Alcotest.(check int) (what ^ ": ticks stepped") ticks !tick

let kinds_of sequence =
  Array.of_list
    (List.map
       (function Core.Access_seq.Ld -> `Load | Core.Access_seq.St -> `Store)
       sequence)

(* Every sequence of length 1-6 (all loads, all stores and every mix),
   over 1-8 locations, for every thread of two blocks: the prologue and
   four iterations. *)
let test_sequence_schedule () =
  let scratch = 100 in
  List.iter
    (fun sequence ->
      let l = List.length sequence in
      for n = 1 to 8 do
        let offsets = List.init n (fun i -> (33 * i) + 5) in
        let kernel = sequence_kernel ~sequence ~n_locations:n in
        let args =
          ("scratch", scratch)
          :: List.mapi (fun i o -> (location_param i, o)) offsets
        in
        let schedule =
          Gpusim.Sim.sequence (kinds_of sequence)
            ~locations:(Array.of_list (List.map (( + ) scratch) offsets))
        in
        for thread = 0 to (2 * stress_block) - 1 do
          check_ticks
            (Printf.sprintf "%s over %d" (Core.Access_seq.to_string sequence) n)
            ~seed:thread ~thread
            ~ticks:(n + 2 + (4 * (l + 1)))
            schedule kernel ~args ~period:l
        done
      done)
    (Core.Access_seq.all ~max_len:6)

let test_random_schedule () =
  List.iter
    (fun words ->
      let scratch = 64 in
      let schedule = Gpusim.Sim.random ~scratch ~words in
      List.iter
        (fun (seed, thread) ->
          check_ticks
            (Printf.sprintf "rand over %d words, seed %d" words seed)
            ~seed ~thread ~ticks:(5 * 60) schedule rand_kernel
            ~args:[ ("scratch", scratch); ("words", words) ]
            ~period:0)
        [ (1, 0); (7, 3); (42, 15) ])
    [ 0; 1; 2; 3; 7; 64; 1024 ]

(* A full sweep of a K20-sized L2 and of small ones, and the ticks of
   the next pass. *)
let test_sweep_schedule () =
  List.iter
    (fun words ->
      let scratch = 128 in
      check_ticks
        (Printf.sprintf "sweep over %d words" words)
        ~seed:5 ~thread:9
        ~ticks:((4 * words) + 3 + 20)
        (Gpusim.Sim.sweep ~scratch ~words)
        cache_kernel
        ~args:[ ("scratch", scratch); ("words", words) ]
        ~period:0)
    [ 0; 1; 5; Gpusim.Chip.k20.Gpusim.Chip.l2_words ]

let test_sequence_rejects_zero_locations () =
  Alcotest.(check bool) "invalid" true
    (try
       ignore (Gpusim.Sim.sequence (kinds_of seq_stld) ~locations:[||]);
       false
     with Invalid_argument _ -> true)

let test_intensity_full_and_diluted () =
  (* Enough threads per location: full (= n_locations).  Starved: less. *)
  let full = Core.Stress.(intensity_for ~n_threads:32 ~n_locations:2) in
  Alcotest.(check (float 1e-9)) "full at 16/location" 2.0 full;
  let diluted = Core.Stress.(intensity_for ~n_threads:32 ~n_locations:16) in
  Alcotest.(check bool) "diluted below full" true (diluted < 16.0);
  Alcotest.(check bool) "still positive" true (diluted > 0.0)

let test_names () =
  Alcotest.(check string) "no" "no-str" (Core.Stress.name Core.Stress.No_stress);
  Alcotest.(check string) "sys" "sys-str"
    (Core.Stress.name
       (Core.Stress.Sys { sequence = seq_stld; spread = 2; regions = 16 }));
  Alcotest.(check string) "rand" "rand-str"
    (Core.Stress.name (Core.Stress.Rand { scratch_words = 64 }));
  Alcotest.(check string) "cache" "cache-str" (Core.Stress.name Core.Stress.Cache)

let test_environment_labels () =
  let tuned = Core.Tuning.shipped ~chip:Gpusim.Chip.k20 in
  let labels =
    List.map (fun e -> e.Core.Environment.label) (Core.Environment.all ~tuned)
  in
  Alcotest.(check (list string)) "the eight environments of Table 5"
    [ "no-str-"; "no-str+"; "sys-str-"; "sys-str+"; "rand-str-"; "rand-str+";
      "cache-str-"; "cache-str+" ]
    labels

let spec_of strategy =
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.k20 ~seed:4 () in
  Core.Stress.make_stress_litmus strategy sim ~app_grid:2 ~app_block:1

let test_no_stress_yields_none () =
  Alcotest.(check bool) "no spec" true (spec_of Core.Stress.No_stress = None)

let test_sys_spec () =
  match
    spec_of (Core.Stress.Sys { sequence = seq_stld; spread = 2; regions = 16 })
  with
  | None -> Alcotest.fail "expected a stress spec"
  | Some spec -> (
    Alcotest.(check bool) "has blocks" true (spec.Gpusim.Sim.blocks > 0);
    Alcotest.(check bool) "warmup covers prologues" true
      (spec.Gpusim.Sim.warmup
      > 3 * spec.Gpusim.Sim.blocks * spec.Gpusim.Sim.block_size);
    match spec.Gpusim.Sim.schedule with
    | Gpusim.Sim.Sequence { kinds; locations } ->
      Alcotest.(check bool) "the sequence's accesses" true
        (kinds = [| `Store; `Load |]);
      (* The two locations are distinct patch regions. *)
      Alcotest.(check int) "two locations" 2 (Array.length locations);
      let l0 = locations.(0) and l1 = locations.(1) in
      Alcotest.(check bool) "distinct regions" true (l0 <> l1);
      Alcotest.(check int) "patch aligned l0" 0
        (l0 mod Gpusim.Chip.k20.Gpusim.Chip.weakness.patch_size);
      Alcotest.(check int) "patch aligned l1" 0
        (l1 mod Gpusim.Chip.k20.Gpusim.Chip.weakness.patch_size)
    | Gpusim.Sim.Random _ | Gpusim.Sim.Sweep _ ->
      Alcotest.fail "sys-str steps a sequence")

let test_cache_spec_uses_l2 () =
  match spec_of Core.Stress.Cache with
  | None -> Alcotest.fail "expected a stress spec"
  | Some spec -> (
    match spec.Gpusim.Sim.schedule with
    | Gpusim.Sim.Sweep { words; _ } ->
      Alcotest.(check int) "scratchpad is L2-sized"
        Gpusim.Chip.k20.Gpusim.Chip.l2_words words
    | Gpusim.Sim.Sequence _ | Gpusim.Sim.Random _ ->
      Alcotest.fail "cache-str steps a sweep")

let test_scratchpad_disjoint_from_app () =
  (* The stressing scratchpad must never overlap application data. *)
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.k20 ~seed:4 () in
  let app_base = Gpusim.Sim.alloc sim 100 in
  match
    Core.Stress.make_stress_litmus
      (Core.Stress.Sys { sequence = seq_stld; spread = 2; regions = 16 })
      sim ~app_grid:2 ~app_block:1
  with
  | None -> Alcotest.fail "expected a stress spec"
  | Some spec -> (
    match spec.Gpusim.Sim.schedule with
    | Gpusim.Sim.Sequence { locations; _ } ->
      Alcotest.(check bool) "scratch above app data" true
        (Array.for_all (fun l -> l >= app_base + 100) locations)
    | Gpusim.Sim.Random _ | Gpusim.Sim.Sweep _ ->
      Alcotest.fail "sys-str steps a sequence")

(* Every stressed location gets a thread (Sec. 3.4), though the stress
   launches whole blocks: on every chip, at every spread the paper's
   budget samples. *)
let test_threads_cover_spread () =
  List.iter
    (fun chip ->
      let sim = Gpusim.Sim.create ~words:8192 ~chip ~seed:0 () in
      for spread = 1 to 64 do
        let make =
          Core.Stress.make_stress_litmus
            (Core.Stress.Sys { sequence = seq_stld; spread; regions = 64 })
        in
        for seed = 1 to 20 do
          Gpusim.Sim.reset sim ~seed;
          match make sim ~app_grid:2 ~app_block:1 with
          | None -> Alcotest.fail "expected a stress spec"
          | Some spec ->
            let threads = spec.Gpusim.Sim.blocks * spec.Gpusim.Sim.block_size in
            if threads < spread then
              Alcotest.failf "%s, spread %d, seed %d: %d stressing threads"
                chip.Gpusim.Chip.name spread seed threads
        done
      done)
    Gpusim.Chip.all

let test_stress_env_does_not_change_results () =
  (* A correct (racy-free) kernel computes the same answer under stress:
     stress memory and threads are disjoint. *)
  let open Gpusim.Kbuild in
  let k =
    kernel "sum" ~params:[ "out" ]
      [ global_tid "g"; atomic_add (param "out") (reg "g") ]
  in
  let run env =
    let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.titan ~seed:8 () in
    (match env with Some e -> Gpusim.Sim.set_environment sim e | None -> ());
    let out = Gpusim.Sim.alloc sim 1 in
    ignore (Gpusim.Sim.launch sim ~grid:4 ~block:4 k ~args:[ ("out", out) ]);
    Gpusim.Sim.read sim out
  in
  let native = run None in
  let stressed = run (Some (Test_util.sys_plus_env Gpusim.Chip.titan)) in
  Alcotest.(check int) "same sum" native stressed

let () =
  Alcotest.run "stress"
    [ ( "unit",
        [ Alcotest.test_case "sequence schedule = kernel" `Quick
            test_sequence_schedule;
          Alcotest.test_case "random schedule = kernel" `Quick
            test_random_schedule;
          Alcotest.test_case "sweep schedule = kernel" `Quick
            test_sweep_schedule;
          Alcotest.test_case "zero locations rejected" `Quick
            test_sequence_rejects_zero_locations;
          Alcotest.test_case "intensity" `Quick test_intensity_full_and_diluted;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "environment labels" `Quick
            test_environment_labels;
          Alcotest.test_case "no-stress spec" `Quick test_no_stress_yields_none;
          Alcotest.test_case "sys spec" `Quick test_sys_spec;
          Alcotest.test_case "cache spec" `Quick test_cache_spec_uses_l2;
          Alcotest.test_case "scratchpad disjoint" `Quick
            test_scratchpad_disjoint_from_app;
          Alcotest.test_case "stress threads cover the spread" `Quick
            test_threads_cover_spread;
          Alcotest.test_case "stress preserves correct results" `Quick
            test_stress_env_does_not_change_results ] ) ]
