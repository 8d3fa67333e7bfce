(* The weak memory subsystem in isolation. *)

let make ?(chip = Gpusim.Chip.k20) ?(seed = 1) ?(words = 512) ?(nthreads = 4) () =
  Gpusim.Memsys.create ~chip ~rng:(Gpusim.Rng.create seed) ~words ~nthreads

let test_host_rw () =
  let m = make () in
  Gpusim.Memsys.write m 5 42;
  Alcotest.(check int) "read back" 42 (Gpusim.Memsys.read m 5);
  Alcotest.(check int) "zero initialised" 0 (Gpusim.Memsys.read m 6)

let test_store_buffering () =
  let m = make () in
  Gpusim.Memsys.store m ~tid:0 ~addr:1 ~value:9;
  Alcotest.(check int) "store is buffered, not visible" 0
    (Gpusim.Memsys.read m 1);
  Alcotest.(check int) "pending" 1 (Gpusim.Memsys.pending_count m ~tid:0);
  let n = Gpusim.Memsys.drain m ~tid:0 in
  Alcotest.(check int) "drained one" 1 n;
  Alcotest.(check int) "now visible" 9 (Gpusim.Memsys.read m 1)

let test_forwarding () =
  let m = make () in
  Gpusim.Memsys.store m ~tid:0 ~addr:2 ~value:7;
  let p = Gpusim.Memsys.load m ~tid:0 ~addr:2 in
  Alcotest.(check int) "load forwards own pending store" 7
    (Gpusim.Memsys.force m ~tid:0 p)

let test_no_cross_thread_forwarding () =
  let m = make () in
  Gpusim.Memsys.store m ~tid:0 ~addr:3 ~value:5;
  let p = Gpusim.Memsys.load m ~tid:1 ~addr:3 in
  Alcotest.(check int) "other thread reads memory" 0
    (Gpusim.Memsys.force m ~tid:1 p)

let test_same_address_order () =
  (* Coherence: same-address stores retire in order under any commit
     pattern. *)
  let m = make ~seed:7 () in
  Gpusim.Memsys.store m ~tid:0 ~addr:4 ~value:1;
  Gpusim.Memsys.store m ~tid:0 ~addr:4 ~value:2;
  for _ = 1 to 200 do
    Gpusim.Memsys.tick m;
    Gpusim.Memsys.attempt_commits m ~tid:0
  done;
  ignore (Gpusim.Memsys.drain m ~tid:0);
  Alcotest.(check int) "last store wins" 2 (Gpusim.Memsys.read m 4)

let test_atomic_sees_own_past () =
  let m = make () in
  Gpusim.Memsys.store m ~tid:0 ~addr:6 ~value:10;
  let old = Gpusim.Memsys.atomic m ~tid:0 ~addr:6 (fun v -> v + 1) in
  Alcotest.(check int) "atomic observed own pending store" 10 old;
  Alcotest.(check int) "atomic effect immediate" 11 (Gpusim.Memsys.read m 6)

let test_atomic_no_full_drain () =
  let m = make () in
  Gpusim.Memsys.store m ~tid:0 ~addr:7 ~value:1;
  ignore (Gpusim.Memsys.atomic m ~tid:0 ~addr:8 (fun v -> v + 1));
  Alcotest.(check int)
    "atomic on another address leaves pending stores alone" 1
    (Gpusim.Memsys.pending_count m ~tid:0)

let test_strong_mode () =
  let m = make ~chip:Gpusim.Chip.sequential () in
  Alcotest.(check bool) "strong" true (Gpusim.Memsys.strong m);
  Gpusim.Memsys.store m ~tid:0 ~addr:9 ~value:3;
  Alcotest.(check int) "immediately visible" 3 (Gpusim.Memsys.read m 9);
  let p = Gpusim.Memsys.load m ~tid:0 ~addr:9 in
  Alcotest.(check bool) "load resolved at issue" true
    (Gpusim.Memsys.resolved p)

let test_reorder_counting () =
  (* Two stores to different partitions can commit out of order; drive
     commits until the younger one retires first at least once. *)
  let chip = Gpusim.Chip.k20 in
  let observed = ref false in
  let attempts = ref 0 in
  while (not !observed) && !attempts < 200 do
    incr attempts;
    let m = make ~chip ~seed:!attempts () in
    Gpusim.Memsys.store m ~tid:0 ~addr:0 ~value:1;
    (* partition 0 *)
    Gpusim.Memsys.store m ~tid:0 ~addr:32 ~value:1;
    (* partition 1 *)
    for _ = 1 to 50 do
      Gpusim.Memsys.tick m;
      Gpusim.Memsys.attempt_commits m ~tid:0
    done;
    ignore (Gpusim.Memsys.drain m ~tid:0);
    if Gpusim.Memsys.reorders m > 0 then observed := true
  done;
  Alcotest.(check bool) "reordering observed and counted" true !observed

let test_contention_decay () =
  let m = make () in
  Gpusim.Memsys.stress_access m ~sid:0 ~kind:`Store ~addr:0 ~boundary:false;
  let c0 = Gpusim.Memsys.contention m ~part:0 ~kind:`Store in
  Alcotest.(check bool) "bump recorded" true (c0 > 0.0);
  for _ = 1 to 500 do
    Gpusim.Memsys.tick m
  done;
  let c1 = Gpusim.Memsys.contention m ~part:0 ~kind:`Store in
  Alcotest.(check bool) "decayed to (near) zero" true (c1 < 0.01 *. c0 +. 1e-9)

let test_stress_gain_scales () =
  let bump gain =
    let m = make () in
    Gpusim.Memsys.set_stress_gain m gain;
    Gpusim.Memsys.stress_access m ~sid:0 ~kind:`Load ~addr:0 ~boundary:false;
    Gpusim.Memsys.contention m ~part:0 ~kind:`Load
  in
  let b1 = bump 1.0 and b2 = bump 2.0 in
  Alcotest.(check bool) "gain doubles the bump" true
    (Float.abs (b2 -. (2.0 *. b1)) < 1e-9)

let test_pure_run_decays () =
  (* Long same-kind runs lose pressure (why pure sequences rank last). *)
  let m = make () in
  let bumps =
    List.init 8 (fun _ ->
        let before = Gpusim.Memsys.contention m ~part:0 ~kind:`Store in
        Gpusim.Memsys.stress_access m ~sid:0 ~kind:`Store ~addr:0
          ~boundary:false;
        Gpusim.Memsys.contention m ~part:0 ~kind:`Store -. before)
  in
  let first = List.hd bumps in
  let last = List.nth bumps 7 in
  Alcotest.(check bool)
    (Printf.sprintf "eighth store bump (%.2f) well below first (%.2f)" last
       first)
    true
    (last < 0.3 *. first)

(* [Memsys.partition] is [Chip.partition] computed by shift and mask on
   power-of-two geometries.  Checked at every address of a default-sized
   device: on every profile, and on ad-hoc chips whose patch size or
   partition count is not a power of two (which keep the division), or
   is a power of two that no profile uses. *)
let test_partition_matches_chip () =
  let adhoc patch_size n_partitions =
    let k20 = Gpusim.Chip.k20 in
    { k20 with
      Gpusim.Chip.name = Printf.sprintf "patch%d/parts%d" patch_size n_partitions;
      weakness = { k20.Gpusim.Chip.weakness with patch_size; n_partitions } }
  in
  let chips =
    Gpusim.Chip.sequential :: Gpusim.Chip.all
    @ [ adhoc 24 8; adhoc 32 6; adhoc 48 3; adhoc 1 1; adhoc 1 16;
        adhoc 128 2; adhoc 16 32 ]
  in
  let words = 65536 in
  List.iter
    (fun chip ->
      let m =
        Gpusim.Memsys.create ~chip ~rng:(Gpusim.Rng.create 1) ~words
          ~nthreads:1
      in
      for addr = 0 to words - 1 do
        let want = Gpusim.Chip.partition chip addr in
        let got = Gpusim.Memsys.partition m addr in
        if got <> want then
          Alcotest.failf "%s: address %d maps to partition %d, not %d"
            chip.Gpusim.Chip.name addr got want
      done)
    chips

(* ------------------------------------------------------------------ *)
(* Model equivalence: the ring-buffer pending queues must be observably
   identical to the original list-based implementation.  [Model] below
   is that original implementation, transcribed verbatim (minus the
   soft-error machinery, which is orthogonal and never armed here).
   Both sides are driven with the same random op sequence and must
   agree on every intermediate observation, every trace event, the
   final memory image, and the rng stream (same draws in the same
   order — any divergence desynchronises the streams and shows up
   immediately in the observations). *)

module Model = struct
  open Gpusim

  type kind = Load_k | Store_k

  type entry = {
    seq : int;
    addr : int;
    part : int;
    ekind : kind;
    store_value : int;
    mutable load_value : int option;
    leak : bool;
  }

  type pending = entry

  type stress_state = {
    mutable prev : kind option;
    mutable run : int;
    mutable prev_run : int;
  }

  type t = {
    chip : Chip.t;
    rng : Rng.t;
    global : int array;
    mutable queues : entry list ref array;
    mutable seq : int;
    mutable now : int;
    read_pool : float array;
    write_pool : float array;
    pool_stamp : int array;
    decay_pow : float array;
    stress_states : (int, stress_state) Hashtbl.t;
    nonempty : (int, unit) Hashtbl.t;
    sink : Trace.t;
    mutable n_reorders : int;
    mutable n_stress : int;
    mutable stress_gain : float;
    strong : bool;
  }

  let create ~chip ~rng ~words ~nthreads =
    let w = chip.Chip.weakness in
    let n = w.n_partitions in
    let decay_pow = Array.make 128 0.0 in
    decay_pow.(0) <- 1.0;
    for i = 1 to 127 do
      decay_pow.(i) <- decay_pow.(i - 1) *. w.decay_per_tick
    done;
    { chip; rng; global = Array.make words 0;
      queues = Array.init nthreads (fun _ -> ref []);
      seq = 0; now = 0;
      read_pool = Array.make n 0.0;
      write_pool = Array.make n 0.0;
      pool_stamp = Array.make n 0;
      decay_pow;
      stress_states = Hashtbl.create 64;
      (* unseeded even under OCAMLRUNPARAM=R, like the real set *)
      nonempty = Hashtbl.create ~random:false 64;
      sink = Trace.create ();
      n_reorders = 0;
      n_stress = 0;
      stress_gain = 1.0;
      strong = w.max_delay <= 0.0 && w.base_delay <= 0.0 }

  let read t addr = t.global.(addr)
  let words t = Array.length t.global
  let tick t = t.now <- t.now + 1

  let reset_threads t ~nthreads =
    t.queues <- Array.init nthreads (fun _ -> ref []);
    Array.fill t.read_pool 0 (Array.length t.read_pool) 0.0;
    Array.fill t.write_pool 0 (Array.length t.write_pool) 0.0;
    Array.fill t.pool_stamp 0 (Array.length t.pool_stamp) 0;
    Hashtbl.reset t.stress_states;
    Hashtbl.reset t.nonempty
  let sink t = t.sink

  let observe_access t ~tid ~addr ~write ~atomic =
    if Trace.active t.sink then
      Trace.emit t.sink ~tick:t.now (Trace.Access { tid; addr; write; atomic })

  let reorders t = t.n_reorders
  let stress_accesses t = t.n_stress

  let refresh_pool t part =
    let dt = t.now - t.pool_stamp.(part) in
    if dt > 0 then begin
      let f = if dt < 128 then t.decay_pow.(dt) else 0.0 in
      t.read_pool.(part) <- t.read_pool.(part) *. f;
      t.write_pool.(part) <- t.write_pool.(part) *. f;
      t.pool_stamp.(part) <- t.now
    end

  let add_contention t part ckind amount =
    refresh_pool t part;
    match ckind with
    | `Load -> t.read_pool.(part) <- t.read_pool.(part) +. amount
    | `Store -> t.write_pool.(part) <- t.write_pool.(part) +. amount

  let contention t ~part ~kind =
    refresh_pool t part;
    let w = t.chip.Chip.weakness in
    match kind with
    | `Load -> t.read_pool.(part) +. (w.cross *. t.write_pool.(part))
    | `Store -> t.write_pool.(part) +. (w.cross *. t.read_pool.(part))

  let stress_state t sid =
    match Hashtbl.find_opt t.stress_states sid with
    | Some s -> s
    | None ->
      let s = { prev = None; run = 0; prev_run = 0 } in
      Hashtbl.add t.stress_states sid s;
      s

  let traffic_bump t st k ~boundary =
    let tr = t.chip.Chip.traffic in
    let same = match st.prev with Some p -> p = k | None -> false in
    let run = if same then st.run + 1 else 1 in
    let runfac_arr =
      match k with Load_k -> tr.run_ld | Store_k -> tr.run_st
    in
    let runfac = runfac_arr.(min run (Array.length runfac_arr) - 1) in
    let bf = if boundary then tr.boundary_factor else 1.0 in
    let base =
      (match k with Load_k -> tr.w_ld | Store_k -> tr.w_st) *. runfac
    in
    let trans =
      match st.prev with
      | Some p when p <> k -> tr.trans_bonus *. bf
      | Some _ | None -> 0.0
    in
    let flush =
      match (k, st.prev) with
      | Store_k, Some Load_k ->
        tr.flush_bonus *. float_of_int (min st.run tr.flush_cap) *. bf
      | _, _ -> 0.0
    in
    if same then st.run <- run
    else begin
      st.prev_run <- st.run;
      st.run <- 1;
      st.prev <- Some k
    end;
    base +. trans +. flush

  let stress_access t ~sid ~kind ~addr ~boundary =
    t.n_stress <- t.n_stress + 1;
    let k = match kind with `Load -> Load_k | `Store -> Store_k in
    let st = stress_state t sid in
    let amount = traffic_bump t st k ~boundary *. t.stress_gain in
    let part = Chip.partition t.chip addr in
    add_contention t part kind amount;
    match kind with
    | `Load -> ignore t.global.(addr)
    | `Store -> t.global.(addr) <- sid

  let app_access_bump = 0.02

  let app_access t ~kind ~addr =
    let part = Chip.partition t.chip addr in
    add_contention t part kind app_access_bump

  let queue t tid = t.queues.(tid)

  let mark_nonempty t tid q =
    if !q = [] then Hashtbl.remove t.nonempty tid
    else Hashtbl.replace t.nonempty tid ()

  let load_value t tid e =
    let q = queue t tid in
    let forwarded =
      List.fold_left
        (fun acc e' ->
          match e'.ekind with
          | Store_k when e'.addr = e.addr && e'.seq < e.seq ->
            Some e'.store_value
          | Store_k | Load_k -> acc)
        None !q
    in
    match forwarded with Some v -> v | None -> t.global.(e.addr)

  let commit t tid e =
    let q = queue t tid in
    (match e.ekind with
    | Store_k -> t.global.(e.addr) <- e.store_value
    | Load_k ->
      if e.load_value = None then e.load_value <- Some (load_value t tid e));
    let remaining = List.filter (fun e' -> e' != e) !q in
    q := remaining;
    mark_nonempty t tid q;
    let older = List.exists (fun (e' : entry) -> e'.seq < e.seq) remaining in
    if older then t.n_reorders <- t.n_reorders + 1;
    if Trace.active t.sink then begin
      Trace.emit t.sink ~tick:t.now
        (Trace.Commit
           { tid; addr = e.addr; is_store = (e.ekind = Store_k);
             value =
               (match e.ekind with
               | Store_k -> e.store_value
               | Load_k -> Option.value ~default:0 e.load_value);
             reordered = older });
      if older then
        let overtaken =
          List.fold_left
            (fun acc (e' : entry) ->
              if e'.seq < e.seq then Some e'.addr else acc)
            None remaining
        in
        match overtaken with
        | Some a ->
          Trace.emit t.sink ~tick:t.now
            (Trace.Reorder { tid; overtaken = a; committed = e.addr })
        | None -> ()
    end

  let pending_count t ~tid = List.length !(queue t tid)

  let heads q =
    let rec go seen acc = function
      | [] -> List.rev acc
      | e :: rest ->
        if e.leak then go seen (e :: acc) rest
        else if List.mem e.part seen then go seen acc rest
        else go (e.part :: seen) (e :: acc) rest
    in
    go [] [] q

  let delay_for t e =
    let w = t.chip.Chip.weakness in
    let kind = match e.ekind with Load_k -> `Load | Store_k -> `Store in
    let c = contention t ~part:e.part ~kind in
    let factor = c *. c /. ((w.knee *. w.knee) +. (c *. c)) in
    let kw =
      match e.ekind with
      | Load_k -> w.ld_delay_w
      | Store_k -> w.st_delay_w
    in
    Float.min w.max_delay (w.base_delay +. (w.gain *. factor *. kw))

  let attempt_commits t ~tid =
    let q = queue t tid in
    if !q <> [] then
      List.iter
        (fun e -> if not (Rng.chance t.rng (delay_for t e)) then commit t tid e)
        (heads !q)

  let drain t ~tid =
    let q = queue t tid in
    let n = List.length !q in
    List.iter (fun e -> commit t tid e) !q;
    n

  let drain_step t ~tid =
    let q = queue t tid in
    (match !q with e :: _ -> commit t tid e | [] -> ());
    !q = []

  let any_pending t = Hashtbl.length t.nonempty > 0

  let random_background_drain t =
    let n = Hashtbl.length t.nonempty in
    if n > 0 then begin
      let i = Rng.int t.rng n in
      let tid = ref (-1) in
      let j = ref 0 in
      Hashtbl.iter
        (fun k () ->
          if !j = i then tid := k;
          incr j)
        t.nonempty;
      if !tid >= 0 then attempt_commits t ~tid:!tid
    end

  let fresh_entry t ~addr ~ekind ~store_value =
    let w = t.chip.Chip.weakness in
    t.seq <- t.seq + 1;
    { seq = t.seq; addr; part = Chip.partition t.chip addr; ekind;
      store_value; load_value = None;
      leak = w.same_patch_leak > 0.0 && Rng.chance t.rng w.same_patch_leak }

  let enqueue t tid e =
    if Trace.active t.sink then
      Trace.emit t.sink ~tick:t.now
        (Trace.Issue
           { tid; addr = e.addr; part = e.part;
             is_store = (e.ekind = Store_k) });
    let q = queue t tid in
    let w = t.chip.Chip.weakness in
    if List.length !q >= w.queue_cap then begin
      match !q with oldest :: _ -> commit t tid oldest | [] -> ()
    end;
    q := !q @ [ e ];
    mark_nonempty t tid q

  let load t ~tid ~addr =
    observe_access t ~tid ~addr ~write:false ~atomic:false;
    if t.strong then begin
      t.seq <- t.seq + 1;
      { seq = t.seq; addr; part = 0; ekind = Load_k; store_value = 0;
        load_value = Some t.global.(addr); leak = false }
    end
    else begin
      let e = fresh_entry t ~addr ~ekind:Load_k ~store_value:0 in
      enqueue t tid e;
      e
    end

  let resolved (e : entry) = e.load_value <> None

  let force t ~tid e =
    match e.load_value with
    | Some v -> v
    | None ->
      commit t tid e;
      (match e.load_value with Some v -> v | None -> assert false)

  let store t ~tid ~addr ~value =
    observe_access t ~tid ~addr ~write:true ~atomic:false;
    if t.strong then t.global.(addr) <- value
    else enqueue t tid (fresh_entry t ~addr ~ekind:Store_k ~store_value:value)

  let atomic t ~tid ~addr f =
    observe_access t ~tid ~addr ~write:true ~atomic:true;
    if not t.strong then begin
      let q = queue t tid in
      let same = List.filter (fun e -> e.addr = addr) !q in
      List.iter (fun e -> commit t tid e) same;
      List.iter
        (fun (e : entry) ->
          t.n_reorders <- t.n_reorders + 1;
          if Trace.active t.sink then
            Trace.emit t.sink ~tick:t.now
              (Trace.Reorder { tid; overtaken = e.addr; committed = addr }))
        !q
    end;
    let old = t.global.(addr) in
    t.global.(addr) <- f old;
    if Trace.active t.sink then
      Trace.emit t.sink ~tick:t.now
        (Trace.Atomic_rmw { tid; addr; before = old; after = t.global.(addr) });
    old
end

type mop =
  | M_store of int * int * int  (* tid, addr, value *)
  | M_load_force of int * int  (* load then force immediately *)
  | M_load_keep of int * int  (* load, drop the handle *)
  | M_atomic of int * int
  | M_fence of int  (* full drain *)
  | M_step of int  (* drain_step *)
  | M_attempt of int
  | M_tick
  | M_background
  | M_stress of int * [ `Load | `Store ] * int * bool
  | M_app of [ `Load | `Store ] * int
  | M_reset  (* reset_threads: a new launch on the same device *)

(* One driver for both implementations, via a record of operations. *)
type ('m, 'p) impl = {
  i_store : 'm -> tid:int -> addr:int -> value:int -> unit;
  i_load : 'm -> tid:int -> addr:int -> 'p;
  i_force : 'm -> tid:int -> 'p -> int;
  i_resolved : 'p -> bool;
  i_atomic : 'm -> tid:int -> addr:int -> (int -> int) -> int;
  i_drain : 'm -> tid:int -> int;
  i_drain_step : 'm -> tid:int -> bool;
  i_attempt : 'm -> tid:int -> unit;
  i_tick : 'm -> unit;
  i_background : 'm -> unit;
  i_stress :
    'm -> sid:int -> kind:[ `Load | `Store ] -> addr:int -> boundary:bool ->
    unit;
  i_app : 'm -> kind:[ `Load | `Store ] -> addr:int -> unit;
  i_reset : 'm -> nthreads:int -> unit;
  i_pending : 'm -> tid:int -> int;
  i_read : 'm -> int -> int;
  i_words : 'm -> int;
  i_reorders : 'm -> int;
  i_stress_accesses : 'm -> int;
  i_any_pending : 'm -> bool;
  i_contention : 'm -> part:int -> kind:[ `Load | `Store ] -> float;
  i_sink : 'm -> Gpusim.Trace.t;
}

let real_impl : (Gpusim.Memsys.t, Gpusim.Memsys.pending) impl =
  { i_store = Gpusim.Memsys.store;
    i_load = Gpusim.Memsys.load;
    i_force = Gpusim.Memsys.force;
    i_resolved = Gpusim.Memsys.resolved;
    i_atomic = Gpusim.Memsys.atomic;
    i_drain = Gpusim.Memsys.drain;
    i_drain_step = Gpusim.Memsys.drain_step;
    i_attempt = Gpusim.Memsys.attempt_commits;
    i_tick = Gpusim.Memsys.tick;
    i_background = Gpusim.Memsys.random_background_drain;
    i_stress = Gpusim.Memsys.stress_access;
    i_app = Gpusim.Memsys.app_access;
    i_reset = Gpusim.Memsys.reset_threads;
    i_pending = Gpusim.Memsys.pending_count;
    i_read = Gpusim.Memsys.read;
    i_words = Gpusim.Memsys.words;
    i_reorders = Gpusim.Memsys.reorders;
    i_stress_accesses = Gpusim.Memsys.stress_accesses;
    i_any_pending = Gpusim.Memsys.any_pending;
    i_contention = Gpusim.Memsys.contention;
    i_sink = Gpusim.Memsys.sink }

let model_impl : (Model.t, Model.pending) impl =
  { i_store = Model.store;
    i_load = Model.load;
    i_force = Model.force;
    i_resolved = Model.resolved;
    i_atomic = Model.atomic;
    i_drain = Model.drain;
    i_drain_step = Model.drain_step;
    i_attempt = Model.attempt_commits;
    i_tick = Model.tick;
    i_background = Model.random_background_drain;
    i_stress = Model.stress_access;
    i_app = Model.app_access;
    i_reset = Model.reset_threads;
    i_pending = Model.pending_count;
    i_read = Model.read;
    i_words = Model.words;
    i_reorders = Model.reorders;
    i_stress_accesses = Model.stress_accesses;
    i_any_pending = Model.any_pending;
    i_contention = Model.contention;
    i_sink = Model.sink }

let model_nthreads = 3
let model_words = 256

(* Run the op sequence and render every observation into one string;
   equality of the two strings is the property. *)
let run_ops (type m p) ~nthreads (impl : (m, p) impl) (m : m) ops =
  Gpusim.Trace.enable (impl.i_sink m);
  let buf = Buffer.create 1024 in
  let obs fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun op ->
      (match op with
      | M_store (tid, addr, value) -> impl.i_store m ~tid ~addr ~value
      | M_load_force (tid, addr) ->
        let p = impl.i_load m ~tid ~addr in
        obs "F%d;" (impl.i_force m ~tid p)
      | M_load_keep (tid, addr) ->
        let p = impl.i_load m ~tid ~addr in
        obs "K%b;" (impl.i_resolved p)
      | M_atomic (tid, addr) ->
        obs "A%d;" (impl.i_atomic m ~tid ~addr (fun v -> v + 3))
      | M_fence tid -> obs "D%d;" (impl.i_drain m ~tid)
      | M_step tid -> obs "S%b;" (impl.i_drain_step m ~tid)
      | M_attempt tid -> impl.i_attempt m ~tid
      | M_tick -> impl.i_tick m
      | M_background -> impl.i_background m
      | M_stress (sid, kind, addr, boundary) ->
        impl.i_stress m ~sid ~kind ~addr ~boundary
      | M_app (kind, addr) -> impl.i_app m ~kind ~addr
      | M_reset -> impl.i_reset m ~nthreads);
      for tid = 0 to nthreads - 1 do
        obs "p%d," (impl.i_pending m ~tid)
      done;
      obs "%b;" (impl.i_any_pending m))
    ops;
  for tid = 0 to nthreads - 1 do
    obs "d%d;" (impl.i_drain m ~tid)
  done;
  for a = 0 to impl.i_words m - 1 do
    let v = impl.i_read m a in
    if v <> 0 then obs "m%d=%d," a v
  done;
  obs "reorders=%d;stress=%d;" (impl.i_reorders m)
    (impl.i_stress_accesses m);
  List.iter
    (fun k ->
      for part = 0 to 7 do
        obs "c%.9g," (impl.i_contention m ~part ~kind:k)
      done)
    [ `Load; `Store ];
  List.iter
    (fun r -> obs "%s;" (Format.asprintf "%a" Gpusim.Trace.pp_record r))
    (Gpusim.Trace.records (impl.i_sink m));
  Buffer.contents buf

let mop_gen ?(nthreads = model_nthreads) ?(background = 2) () =
  let open QCheck.Gen in
  let tid = int_range 0 (nthreads - 1) in
  let addr = int_range 0 (model_words - 1) in
  let kind = oneofl [ `Load; `Store ] in
  frequency
    [ (4, map3 (fun t a v -> M_store (t, a, v)) tid addr (int_range 0 99));
      (3, map2 (fun t a -> M_load_force (t, a)) tid addr);
      (2, map2 (fun t a -> M_load_keep (t, a)) tid addr);
      (1, map2 (fun t a -> M_atomic (t, a)) tid addr);
      (1, map (fun t -> M_fence t) tid);
      (1, map (fun t -> M_step t) tid);
      (2, map (fun t -> M_attempt t) tid);
      (3, return M_tick);
      (background, return M_background);
      ( 2,
        map3
          (fun s (k, a) b -> M_stress (s, k, a, b))
          (int_range 0 3) (pair kind addr) bool );
      (1, map2 (fun k a -> M_app (k, a)) kind addr) ]

let scenario_gen =
  QCheck.Gen.(
    triple (int_range 1 1_000_000) bool
      (list_size (int_range 1 150) (mop_gen ())))

let equivalent ?(nthreads = model_nthreads) (seed, quirky, ops) =
  (* gtx980 exercises the same-partition leak quirk (extra rng draws per
     entry); k20 is the common case. *)
  let chip = if quirky then Gpusim.Chip.gtx980 else Gpusim.Chip.k20 in
  let real =
    Gpusim.Memsys.create ~chip ~rng:(Gpusim.Rng.create seed)
      ~words:model_words ~nthreads
  in
  let model =
    Model.create ~chip ~rng:(Gpusim.Rng.create seed) ~words:model_words
      ~nthreads
  in
  let a = run_ops ~nthreads real_impl real ops in
  let b = run_ops ~nthreads model_impl model ops in
  if String.equal a b then true
  else
    QCheck.Test.fail_reportf
      "Memsys diverged from the list-based model@.real:  %s@.model: %s" a b

let model_equiv =
  QCheck.Test.make ~count:300 ~name:"ring-buffer queues = list-based model"
    (QCheck.make scenario_gen) equivalent

(* The same equivalence with many threads pending at once.  The real
   [random_background_drain] picks its thread by position in an
   array-backed set that reproduces the iteration order of the model's
   [Hashtbl] (bucket by bucket, newest first), including the table's
   order-preserving doubling once it holds more than twice its 64
   buckets, and its return to 64 buckets on [reset_threads].  No app has
   more than 32 threads, so only this property reaches the doublings.
   Each phase leaves three to nine threads in ten with a pending store,
   in random order and with background drains interleaved, so picks
   happen at every set size on the way up; then it runs the usual mix
   with background drains weighted up.  Phases are separated by
   [reset_threads].  With 300 threads a full phase crosses both 128 and
   256 members. *)
let wide_nthreads = 300

let wide_phase_gen =
  let open QCheck.Gen in
  let fill tenths =
    flatten_l
      (List.init wide_nthreads (fun tid ->
           map3
             (fun r addr v -> if r < tenths then [ M_store (tid, addr, v) ] else [])
             (int_range 0 9)
             (int_range 0 (model_words - 1))
             (int_range 0 99)))
  in
  int_range 3 9 >>= fun tenths ->
  fill tenths >>= fun stores ->
  shuffle_l (List.concat stores @ List.init 24 (fun _ -> M_background))
  >>= fun filled ->
  map
    (fun ops -> filled @ ops)
    (list_size (int_range 1 80)
       (mop_gen ~nthreads:wide_nthreads ~background:12 ()))

let wide_scenario_gen =
  QCheck.Gen.(
    triple (int_range 1 1_000_000) bool
      (map (fun phases -> List.concat_map (fun p -> p @ [ M_reset ]) phases)
         (list_size (int_range 1 3) wide_phase_gen)))

let model_equiv_wide =
  QCheck.Test.make ~count:25
    ~name:"pending-thread set = Hashtbl order, 300 threads, resets"
    (QCheck.make wide_scenario_gen)
    (equivalent ~nthreads:wide_nthreads)

let () =
  Alcotest.run "memsys"
    [ ( "unit",
        [ Alcotest.test_case "host read/write" `Quick test_host_rw;
          Alcotest.test_case "store buffering" `Quick test_store_buffering;
          Alcotest.test_case "forwarding" `Quick test_forwarding;
          Alcotest.test_case "no cross-thread forwarding" `Quick
            test_no_cross_thread_forwarding;
          Alcotest.test_case "same-address order" `Quick
            test_same_address_order;
          Alcotest.test_case "atomic sees own past" `Quick
            test_atomic_sees_own_past;
          Alcotest.test_case "atomic does not drain" `Quick
            test_atomic_no_full_drain;
          Alcotest.test_case "strong mode" `Quick test_strong_mode;
          Alcotest.test_case "reorder counting" `Quick test_reorder_counting;
          Alcotest.test_case "contention decay" `Quick test_contention_decay;
          Alcotest.test_case "stress gain" `Quick test_stress_gain_scales;
          Alcotest.test_case "pure runs decay" `Quick test_pure_run_decays;
          Alcotest.test_case "partition = Chip.partition" `Quick
            test_partition_matches_chip ] );
      ( "model",
        [ QCheck_alcotest.to_alcotest model_equiv;
          QCheck_alcotest.to_alcotest model_equiv_wide ] ) ]
