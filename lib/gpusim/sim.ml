type stress_spec = {
  kernel : Kernel.t;
  blocks : int;
  block_size : int;
  args : (string * int) list;
  period : int;
  warmup : int;
  intensity : float;
}

type status =
  | Running
  | Draining
  | Waiting of Memsys.pending  (* parked on an unresolved load *)
  | At_barrier
  | Done

type thread = {
  ctx : Code.tctx;
  mutable code : Code.t;
  mutable pc : int;
  mutable status : status;
  mutable daemon : bool;  (* stressing thread: terminated when the app finishes *)
  mutable block_id : int;
  mutable phase : int;  (* stressing accesses so far, modulo [period] *)
  mutable period : int;
}

(* A block's threads are the slice [first, first + size) of the thread
   table: global ids are assigned densely in block order. *)
type blk = {
  mutable live : int;  (* threads not yet Done *)
  mutable waiting : int;  (* threads at the barrier *)
  mutable first : int;
  mutable size : int;
  mutable shared : int array;
}

type t = {
  chip : Chip.t;
  rng : Rng.t;
  mem : Memsys.t;
  mutable brk : int;  (* bump allocator cursor *)
  mutable env : environment;
  mutable cycles_total : int;  (* modelled runtime over all launches *)
  mutable energy_total : float;
  mutable code_cache : (Kernel.t * Code.t) list;
      (* compiled code by kernel; survives [reset] because compilation is
         a pure function of the kernel — see [compile_cached] *)
  (* The launch arena: thread slots with their contexts and register
     files, block records and the runnable sets.  They grow to the
     high-water launch and every launch re-arms what it uses, so they
     need no [reset]. *)
  mutable threads : thread array;
  mutable blocks : blk array;
  mutable runnable : int array;
  mutable pos : int array;
}

and environment = {
  randomise : bool;
  make_stress : t -> app_grid:int -> app_block:int -> stress_spec option;
}

let no_environment =
  { randomise = false; make_stress = (fun _ ~app_grid:_ ~app_block:_ -> None) }

(* Ambient per-process configuration, installed by the supervision layer
   (Core.Exec) and the chaos driver without threading new parameters
   through every app signature.  Both are read-only on the hot path. *)

let poll_hook : (unit -> unit) option Atomic.t = Atomic.make None
let set_poll_hook h = Atomic.set poll_hook h

let soft_error_default : (float * int) option Atomic.t = Atomic.make None
let set_soft_error_default d = Atomic.set soft_error_default d

(* Arm soft-error injection per the ambient default; shared between
   [create] and [reset] so a recycled simulator is configured exactly like
   a fresh one. *)
let arm_soft_errors t ~seed =
  match Atomic.get soft_error_default with
  | Some (rate, fault_seed) when rate > 0.0 ->
    (* A dedicated rng derived from both the fault seed and the device
       seed: deterministic per device, independent of the device's own
       random stream. *)
    Memsys.set_soft_errors t.mem
      (Some (Rng.create (fault_seed lxor (seed * 0x9E3779B1)), rate))
  | Some _ | None -> ()

let create ?(words = 65536) ~chip ~seed () =
  let rng = Rng.create seed in
  let t =
    { chip; rng; mem = Memsys.create ~chip ~rng ~words ~nthreads:0; brk = 0;
      env = no_environment; cycles_total = 0; energy_total = 0.0;
      code_cache = []; threads = [||]; blocks = [||]; runnable = [||];
      pos = [||] }
  in
  arm_soft_errors t ~seed;
  t

(* Rewind a simulator to the state [create ~words ~chip ~seed ()] would
   produce, reusing every internal buffer.  Behavioural equivalence is
   property-tested against fresh creation (test_sim / test_alloc). *)
let reset t ~seed =
  Rng.reseed t.rng seed;
  Memsys.reset_device t.mem;
  t.brk <- 0;
  t.env <- no_environment;
  t.cycles_total <- 0;
  t.energy_total <- 0.0;
  arm_soft_errors t ~seed

(* Per-domain simulator arenas: one recycled instance per (chip, device
   size), so the per-run cost of a campaign is the run itself rather than
   re-creating a device (global memory array, queues, trace sink) on
   every iteration.  Keyed in domain-local storage — domains never share
   an instance, so no synchronisation is needed on the hot path. *)
type slot = { sim : t; mutable busy : bool }

let arenas : (string * int, slot) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let with_sim ?(words = 65536) ~chip ~seed f =
  let tbl = Domain.DLS.get arenas in
  let key = (chip.Chip.name, words) in
  match Hashtbl.find_opt tbl key with
  | Some slot when (not slot.busy) && slot.sim.chip == chip ->
    slot.busy <- true;
    Fun.protect
      ~finally:(fun () -> slot.busy <- false)
      (fun () ->
        reset slot.sim ~seed;
        f slot.sim)
  | Some { busy = true; _ } ->
    (* Nested borrow of the same device class (an app running a sub-sim):
       fall back to a throwaway instance. *)
    f (create ~words ~chip ~seed ())
  | Some _ | None ->
    (* First use, or a structurally different chip under the same name
       (property tests build ad-hoc chips): install a fresh instance. *)
    let slot = { sim = create ~words ~chip ~seed (); busy = true } in
    Hashtbl.replace tbl key slot;
    Fun.protect
      ~finally:(fun () -> slot.busy <- false)
      (fun () -> f slot.sim)

let chip t = t.chip
let rng t = t.rng
let mem t = t.mem
let set_environment t env = t.env <- env

let alloc t n =
  if n < 0 then invalid_arg "Sim.alloc: negative size";
  let patch = t.chip.Chip.weakness.patch_size in
  let base = (t.brk + patch - 1) / patch * patch in
  if base + n > Memsys.words t.mem then failwith "Sim.alloc: out of memory";
  t.brk <- base + n;
  base

let read t addr = Memsys.read t.mem addr
let write t addr v = Memsys.write t.mem addr v

let fill t ~base ~len v =
  for i = base to base + len - 1 do
    Memsys.write t.mem i v
  done

let read_array t ~base ~len = Array.init len (fun i -> Memsys.read t.mem (base + i))

let write_array t ~base a =
  Array.iteri (fun i v -> Memsys.write t.mem (base + i) v) a

let reorders t = Memsys.reorders t.mem
let bitflips t = Memsys.bitflips t.mem
let elapsed_cycles t = t.cycles_total
let consumed_energy t = t.energy_total
let trace t = Memsys.sink t.mem

(* ------------------------------------------------------------------ *)
(* Launch machinery                                                     *)

type outcome = Finished | Timeout | Trapped of string

type result = {
  outcome : outcome;
  barrier_divergence : bool;
  metrics : Metrics.t;
}

(* Logical thread-id assignment under randomisation: blocks are permuted
   among block slots, complete warps among warp slots within each block,
   and lanes within each warp.  Threads that share a block (warp) before
   randomisation still do afterwards, so barriers and intra-warp idioms
   stay meaningful (Sec. 3.5).  Without randomisation the mapping is the
   identity and nothing is allocated (nor any randomness drawn): callers
   use the ids directly. *)
let logical_ids t ~grid ~block =
  let warp = t.chip.Chip.warp_size in
  let block_of = Array.init grid (fun b -> b) in
  let tid_of = Array.init grid (fun _ -> Array.init block (fun i -> i)) in
  Rng.shuffle t.rng block_of;
  let full_warps = block / warp in
  Array.iter
    (fun tids ->
      if full_warps > 1 then begin
        let warp_slot = Array.init full_warps (fun w -> w) in
        Rng.shuffle t.rng warp_slot;
        let lanes = Array.init warp (fun l -> l) in
        for w = 0 to full_warps - 1 do
          Rng.shuffle t.rng lanes;
          for l = 0 to warp - 1 do
            tids.((w * warp) + l) <- (warp_slot.(w) * warp) + lanes.(l)
          done
        done
      end)
    tid_of;
  (block_of, tid_of)

let default_max_ticks = 1_000_000

(* Scheduling: a cursor walks each runnable set in bursts, with random
   jumps.  Bursts create the systematic co-scheduling patterns that thread
   randomisation perturbs. *)
let burst_continue = 0.7

(* Share of scheduler ticks given to stressing (daemon) threads when both
   classes have runnable threads. *)
let daemon_share = 0.65

let owner_attempt_probability = 0.5

exception Stop of outcome

(* Follow a thread's jump chain from [pc] to its next real operation,
   which is free: only real operations cost a tick.  Top level, not local
   to [launch]'s step, so that a step allocates no closure. *)
let rec fetch th pc fuel =
  if fuel = 0 then raise (Code.Trap "jump cycle");
  match th.code.Code.ops.(pc) with
  | Code.Ojump target -> fetch th target (fuel - 1)
  | op ->
    th.pc <- pc;
    op

let[@inline] bounds_global mem a =
  if a < 0 || a >= Memsys.words mem then
    raise (Code.Trap (Fmt.str "global access out of bounds: %d" a))

(* [fetch] from the thread's pc, with the common case, no jump, inline. *)
let[@inline] next_op th =
  match th.code.Code.ops.(th.pc) with
  | Code.Ojump target -> fetch th target (Array.length th.code.Code.ops)
  | op -> op

(* Whether a stressing thread's next access starts an iteration of its
   loop, from its access count kept modulo [period] without a division. *)
let[@inline] stress_boundary th =
  let boundary = th.period > 0 && th.phase = 0 in
  let p = th.phase + 1 in
  th.phase <- (if p = th.period then 0 else p);
  boundary

(* Compiled code is a pure function of the kernel — a launch binds its
   arguments with [Code.bind], and all device state flows in through the
   per-thread ctx — so a recycled simulator that launches the same few
   (memoised) kernels millions of times need not re-lower them.  Keyed
   on physical kernel equality.  A tuning stage cycles a dozen litmus
   kernels around one stress kernel, so the cache holds a few more than
   that; a hit allocates nothing.  Deliberately kept across [reset]:
   recycling must not change behaviour (property-tested against fresh
   simulators in test_alloc/test_sim), and purity makes the cached code
   seed-independent. *)
let code_cache_max = 24

let rec find_code kernel = function
  | [] -> raise Not_found
  | (k, c) :: tl -> if k == kernel then c else find_code kernel tl

let compile_cached t kernel =
  match find_code kernel t.code_cache with
  | c -> c
  | exception Not_found ->
    let c = Code.compile kernel in
    let keep = t.code_cache in
    let keep =
      if List.length keep >= code_cache_max then
        List.filteri (fun i _ -> i < code_cache_max - 1) keep
      else keep
    in
    t.code_cache <- (kernel, c) :: keep;
    c

(* Grow the launch arena to [threads] thread slots and [blocks] block
   records; new thread slots start out on [code] until armed. *)
let grow_arena t ~threads:n ~blocks:nb ~code =
  let cap = Array.length t.threads in
  if cap < n then begin
    t.threads <-
      Array.append t.threads
        (Array.init (n - cap) (fun i ->
             { ctx = Code.make_ctx ~gid:(cap + i) ~mem:t.mem; code; pc = 0;
               status = Done; daemon = false; block_id = 0; phase = 0;
               period = 0 }));
    t.runnable <- Array.make n 0;
    t.pos <- Array.make n 0
  end;
  let bcap = Array.length t.blocks in
  if bcap < nb then
    t.blocks <-
      Array.append t.blocks
        (Array.init (nb - bcap) (fun _ ->
             { live = 0; waiting = 0; first = 0; size = 0; shared = [||] }))

let launch t ?(max_ticks = default_max_ticks) ?(shared_words = 64) ~grid
    ~block kernel ~args =
  if grid <= 0 || block <= 0 || block > 1024 then
    invalid_arg "Sim.launch: bad launch configuration";
  let stress = t.env.make_stress t ~app_grid:grid ~app_block:block in
  let app_code = compile_cached t kernel in
  let app_params = Code.bind app_code args in
  let n_stress_blocks = match stress with Some s -> s.blocks | None -> 0 in
  let n_stress_threads =
    match stress with Some s -> s.blocks * s.block_size | None -> 0
  in
  let n_app = grid * block in
  let total = n_app + n_stress_threads in
  let sink = Memsys.sink t.mem in
  let tick_now () = Memsys.now t.mem in
  if Trace.active sink then
    Trace.emit sink ~tick:(tick_now ())
      (Trace.Launch_begin
         { kernel = kernel.Kernel.name; grid; block;
           stress_blocks = n_stress_blocks;
           stress_threads = n_stress_threads });
  Memsys.reset_threads t.mem ~nthreads:total;
  Memsys.set_stress_gain t.mem
    (match stress with Some s -> s.intensity | None -> 1.0);
  (* The randomised id maps are only materialised when the environment
     asks for randomisation; the default identity mapping allocates
     nothing. *)
  let ids = if t.env.randomise then Some (logical_ids t ~grid ~block) else None in
  let metrics = Metrics.create () in
  let reorders_before = Memsys.reorders t.mem in
  let bitflips_before = Memsys.bitflips t.mem in
  grow_arena t ~threads:total ~blocks:(grid + n_stress_blocks) ~code:app_code;
  let threads = t.threads and blocks = t.blocks in
  let arm_block block_id ~first ~code ~params ~daemon ~period ~l_gdim ~l_bid
      ~size ~shared_sz =
    let b = blocks.(block_id) in
    (* A shared array keeps exactly the requested length: a longer one
       would hide an out-of-bounds trap. *)
    let shared_sz = Int.max 1 shared_sz in
    if Array.length b.shared = shared_sz then Array.fill b.shared 0 shared_sz 0
    else b.shared <- Array.make shared_sz 0;
    b.live <- size;
    b.waiting <- 0;
    b.first <- first;
    b.size <- size;
    for i = 0 to size - 1 do
      let th = threads.(first + i) in
      let l_tid =
        if daemon then i
        else match ids with Some (_, tid_of) -> tid_of.(l_bid).(i) | None -> i
      in
      let l_bid =
        if daemon then l_bid
        else match ids with Some (block_of, _) -> block_of.(l_bid) | None -> l_bid
      in
      Code.arm th.ctx code ~params ~l_tid ~l_bid ~l_bdim:size ~l_gdim
        ~shared:b.shared;
      (* as in [Code.arm], no write barrier for an unchanged pointer *)
      if th.code != code then th.code <- code;
      th.pc <- 0;
      if th.status != Running then th.status <- Running;
      th.daemon <- daemon;
      th.block_id <- block_id;
      th.phase <- 0;
      th.period <- period
    done
  in
  for b = 0 to grid - 1 do
    arm_block b ~first:(b * block) ~code:app_code ~params:app_params
      ~daemon:false ~period:0 ~l_gdim:grid ~l_bid:b ~size:block
      ~shared_sz:shared_words
  done;
  (match stress with
  | Some s ->
    let code = compile_cached t s.kernel in
    let params = Code.bind code s.args in
    for b = 0 to s.blocks - 1 do
      arm_block (grid + b) ~first:(n_app + (b * s.block_size)) ~code ~params
        ~daemon:true ~period:s.period ~l_gdim:s.blocks ~l_bid:b
        ~size:s.block_size ~shared_sz:1
    done
  | None -> ());
  (* Two runnable sets with O(1) removal: application threads keep a fixed
     scheduling share even when many stressing threads are resident, as on
     a real GPU where stress occupies other SMs rather than starving the
     application. *)
  let runnable = t.runnable and pos = t.pos in
  for gid = 0 to total - 1 do
    runnable.(gid) <- gid;
    pos.(gid) <- gid
  done;
  let n_run_app = ref n_app in
  (* Layout invariant: runnable.[0, n_run_app) are runnable app threads;
     runnable.[n_app, n_app + n_run_daemon) are runnable daemons. *)
  let n_run_daemon = ref n_stress_threads in
  let class_base gid = if gid < n_app then 0 else n_app in
  let class_count gid = if gid < n_app then n_run_app else n_run_daemon in
  let remove_runnable gid =
    let base = class_base gid and count = class_count gid in
    let p = pos.(gid) in
    if p < base + !count then begin
      let last = runnable.(base + !count - 1) in
      runnable.(p) <- last;
      pos.(last) <- p;
      runnable.(base + !count - 1) <- gid;
      pos.(gid) <- base + !count - 1;
      decr count
    end
  in
  let add_runnable gid =
    let base = class_base gid and count = class_count gid in
    let p = pos.(gid) in
    if p >= base + !count then begin
      let first = runnable.(base + !count) in
      runnable.(base + !count) <- gid;
      pos.(gid) <- base + !count;
      runnable.(p) <- first;
      pos.(first) <- p;
      incr count
    end
  in
  let live_app = ref n_app in
  let divergence = ref false in
  let cost = t.chip.Chip.cost in
  let weak = not (Memsys.strong t.mem) in
  let charge th c =
    if not th.daemon then metrics.Metrics.app_cycles <- metrics.Metrics.app_cycles + c
  in
  let release_barrier b ~by_exit =
    let last = b.first + b.size - 1 in
    for gid = b.first to last do
      if threads.(gid).status <> Done then ignore (Memsys.drain t.mem ~tid:gid)
    done;
    for gid = b.first to last do
      let th = threads.(gid) in
      if th.status = At_barrier then begin
        th.status <- Running;
        add_runnable gid
      end
    done;
    b.waiting <- 0;
    (* CUDA leaves a barrier undefined unless every thread of the block
       executes it; a release with exited members is flagged. *)
    if by_exit || b.live < b.size then divergence := true;
    if Trace.active sink then
      Trace.emit sink ~tick:(tick_now ())
        (Trace.Barrier_release { block = threads.(b.first).block_id; by_exit })
  in
  let finish_thread th =
    th.status <- Done;
    if Trace.active sink then
      Trace.emit sink ~tick:(tick_now ())
        (Trace.Thread_done { tid = th.ctx.Code.gid; daemon = th.daemon });
    remove_runnable th.ctx.Code.gid;
    let b = blocks.(th.block_id) in
    b.live <- b.live - 1;
    if not th.daemon then begin
      decr live_app;
      if !live_app = 0 then raise (Stop Finished)
    end;
    if b.waiting > 0 && b.waiting = b.live then release_barrier b ~by_exit:true
  in
  let bounds_shared th a =
    if a < 0 || a >= Array.length th.ctx.Code.shared then
      raise (Code.Trap (Fmt.str "shared access out of bounds: %d" a))
  in
  let count_load th =
    if not th.daemon then metrics.Metrics.n_load <- metrics.Metrics.n_load + 1
  in
  let count_store th =
    if not th.daemon then metrics.Metrics.n_store <- metrics.Metrics.n_store + 1
  in
  let exec th =
    let ctx = th.ctx in
    let gid = ctx.Code.gid in
    match next_op th with
    | Code.Ojump _ -> assert false
    | Code.Oassign (i, f) ->
      Code.set_reg ctx i (f ctx);
      th.pc <- th.pc + 1;
      if not th.daemon then metrics.Metrics.n_alu <- metrics.Metrics.n_alu + 1;
      charge th cost.cycles_alu
    | Code.Ojz (f, target) ->
      let v = f ctx in
      th.pc <- (if v = 0 then target else th.pc + 1);
      if not th.daemon then metrics.Metrics.n_alu <- metrics.Metrics.n_alu + 1;
      charge th cost.cycles_alu
    | Code.Oload { dst; space; addr; _ } ->
      let a = addr ctx in
      (match space with
      | Kernel.Shared ->
        bounds_shared th a;
        Code.set_reg ctx dst ctx.Code.shared.(a)
      | Kernel.Global ->
        bounds_global t.mem a;
        Memsys.app_access t.mem ~kind:`Load ~addr:a;
        let p = Memsys.load t.mem ~tid:gid ~addr:a in
        if weak then ctx.Code.pend.(dst) <- p
        else Code.set_reg ctx dst (Memsys.force t.mem ~tid:gid p));
      th.pc <- th.pc + 1;
      count_load th;
      charge th cost.cycles_mem
    | Code.Ostore { space; addr; value; _ } ->
      let a = addr ctx in
      let v = value ctx in
      (match space with
      | Kernel.Shared ->
        bounds_shared th a;
        ctx.Code.shared.(a) <- v
      | Kernel.Global ->
        bounds_global t.mem a;
        Memsys.app_access t.mem ~kind:`Store ~addr:a;
        Memsys.store t.mem ~tid:gid ~addr:a ~value:v);
      th.pc <- th.pc + 1;
      count_store th;
      charge th cost.cycles_mem
    | Code.Oatomic { dst; space; addr; prepare; _ } ->
      let a = addr ctx in
      let f = prepare ctx in
      let old =
        match space with
        | Kernel.Shared ->
          bounds_shared th a;
          let old = ctx.Code.shared.(a) in
          ctx.Code.shared.(a) <- f old;
          old
        | Kernel.Global ->
          bounds_global t.mem a;
          Memsys.app_access t.mem ~kind:`Store ~addr:a;
          Memsys.atomic t.mem ~tid:gid ~addr:a f
      in
      (match dst with
      | Some i -> Code.set_reg ctx i old
      | None -> ());
      th.pc <- th.pc + 1;
      if not th.daemon then
        metrics.Metrics.n_atomic <- metrics.Metrics.n_atomic + 1;
      charge th cost.cycles_atomic
    | Code.Ofence scope ->
      th.pc <- th.pc + 1;
      if not th.daemon then metrics.Metrics.n_fence <- metrics.Metrics.n_fence + 1;
      let base =
        match scope with
        | Kernel.Device -> cost.cycles_fence_base
        | Kernel.Cta -> cost.cycles_fence_base / 2
      in
      charge th base;
      let pending = Memsys.pending_count t.mem ~tid:gid in
      if Trace.active sink then
        Trace.emit sink ~tick:(tick_now ())
          (Trace.Fence
             { tid = gid; pending; device_scope = (scope = Kernel.Device) });
      if pending > 0 then th.status <- Draining
    | Code.Obarrier ->
      th.pc <- th.pc + 1;
      th.status <- At_barrier;
      remove_runnable gid;
      let b = blocks.(th.block_id) in
      b.waiting <- b.waiting + 1;
      if Trace.active sink then
        Trace.emit sink ~tick:(tick_now ())
          (Trace.Barrier_wait { tid = gid; block = th.block_id });
      if b.waiting = b.live then release_barrier b ~by_exit:false
    | Code.Oreturn -> finish_thread th
  in
  (* A running stressing thread's step.  Its global accesses only feed
     the contention model, and it is neither metered nor charged.  Its
     registers never wait for a load (its loads read memory at once), so
     it needs no [Unresolved] handler and writes values straight to
     [regs].  Any op not handled here takes the common [exec]. *)
  let stress_step th =
    let ctx = th.ctx in
    match next_op th with
    | Code.Oassign (i, f) ->
      ctx.Code.regs.(i) <- f ctx;
      th.pc <- th.pc + 1
    | Code.Ojz (f, target) ->
      th.pc <- (if f ctx = 0 then target else th.pc + 1)
    | Code.Oload { dst; space = Kernel.Global; addr; _ } ->
      let a = addr ctx in
      bounds_global t.mem a;
      Memsys.stress_access t.mem ~sid:ctx.Code.gid ~kind:`Load ~addr:a
        ~boundary:(stress_boundary th);
      ctx.Code.regs.(dst) <- Memsys.read t.mem a;
      th.pc <- th.pc + 1
    | Code.Ostore { space = Kernel.Global; addr; value; _ } ->
      let a = addr ctx in
      ignore (value ctx : int);
      bounds_global t.mem a;
      Memsys.stress_access t.mem ~sid:ctx.Code.gid ~kind:`Store ~addr:a
        ~boundary:(stress_boundary th);
      th.pc <- th.pc + 1
    | _ -> exec th
  in
  let step th =
    match th.status with
    | Running ->
      if th.daemon then stress_step th
      else (try exec th with Code.Unresolved p -> th.status <- Waiting p)
    | Waiting p ->
      (* Drive this thread's own commits; the load completes through the
         usual contention-delayed machinery, so stressing the load's
         partition lengthens the stall. *)
      Memsys.attempt_commits t.mem ~tid:th.ctx.Code.gid;
      if Memsys.resolved p then begin
        th.status <- Running;
        try exec th with Code.Unresolved p' -> th.status <- Waiting p'
      end
    | Draining ->
      metrics.Metrics.fence_stall_ticks <- metrics.Metrics.fence_stall_ticks + 1;
      metrics.Metrics.fence_drained <- metrics.Metrics.fence_drained + 1;
      charge th cost.cycles_fence_per_entry;
      if Memsys.drain_step t.mem ~tid:th.ctx.Code.gid then th.status <- Running
    | At_barrier | Done -> assert false (* not in the runnable set *)
  in
  let warmup = match stress with Some s -> s.warmup | None -> 0 in
  let outcome = ref Timeout in
  let cursor_app = ref 0 in
  let cursor_daemon = ref 0 in
  (* The next thread of one runnable class: the class's cursor continues
     its burst or jumps at random.  A burst step has [!cursor < !count],
     so it wraps by a compare. *)
  let pick ~base count cursor =
    if !cursor >= !count || not (Rng.chance t.rng burst_continue) then
      cursor := Rng.int t.rng !count
    else cursor := (if !cursor + 1 = !count then 0 else !cursor + 1);
    runnable.(base + !cursor)
  in
  (try
     let ticks = ref 0 in
     while !n_run_app > 0 || !n_run_daemon > 0 do
       if !ticks >= max_ticks + warmup then raise (Stop Timeout);
       incr ticks;
       metrics.Metrics.ticks <- metrics.Metrics.ticks + 1;
       Memsys.tick t.mem;
       (* Cooperative cancellation point for supervised timeouts: a
          hook that raises aborts the launch (and the whole job attempt)
          without needing to kill the domain. *)
       if !ticks land 1023 = 0 then begin
         match Atomic.get poll_hook with Some f -> f () | None -> ()
       end;
       (* Sample one partition's contention pools every 64 ticks, walking
          the partitions round-robin.  Reads no randomness, so tracing
          never perturbs an execution. *)
       if !ticks land 63 = 0 && Trace.active sink then begin
         let part =
           !ticks lsr 6 mod t.chip.Chip.weakness.Chip.n_partitions
         in
         Trace.emit sink ~tick:(tick_now ())
           (Trace.Contention
              { part;
                read = Memsys.contention t.mem ~part ~kind:`Load;
                write = Memsys.contention t.mem ~part ~kind:`Store })
       end;
       let pick_daemon =
         if !n_run_daemon = 0 then false
         else if !n_run_app = 0 then true
         else if !ticks <= warmup then true
         else Rng.chance t.rng daemon_share
       in
       let gid =
         if pick_daemon then pick ~base:n_app n_run_daemon cursor_daemon
         else pick ~base:0 n_run_app cursor_app
       in
       let th = threads.(gid) in
       step th;
       (* The owner's commit attempt does nothing on an empty queue
          (always, for a stressing thread), so only its coin's draw is
          taken: one draw, as [owner_attempt_probability] is in (0, 1). *)
       if weak && th.status != Done then
         if th.daemon || Memsys.pending_count t.mem ~tid:gid = 0 then
           Rng.skip t.rng
         else if Rng.chance t.rng owner_attempt_probability then
           Memsys.attempt_commits t.mem ~tid:gid;
       if weak && !ticks land 3 = 0 then
         Memsys.random_background_drain t.mem
     done;
     (* All threads blocked at distinct barriers with nobody left to make
        progress would exit the loop with runnable empty but app threads
        alive: that is a deadlock, reported as divergence. *)
     if !live_app > 0 then begin
       divergence := true;
       outcome := Finished
     end
     else outcome := Finished
   with
  | Stop o -> outcome := o
  | Code.Trap msg -> outcome := Trapped msg);
  (* Kernel completion makes all writes globally visible. *)
  let order = Array.init total (fun i -> i) in
  Rng.shuffle t.rng order;
  Array.iter (fun gid -> ignore (Memsys.drain t.mem ~tid:gid)) order;
  metrics.Metrics.n_reorder <- Memsys.reorders t.mem - reorders_before;
  metrics.Metrics.n_bitflip <- Memsys.bitflips t.mem - bitflips_before;
  t.cycles_total <- t.cycles_total + Metrics.runtime_cycles ~chip:t.chip metrics;
  t.energy_total <- t.energy_total +. Metrics.energy ~chip:t.chip metrics;
  if Trace.active sink then
    Trace.emit sink ~tick:(tick_now ())
      (Trace.Launch_end
         { outcome =
             (match !outcome with
             | Finished -> "finished"
             | Timeout -> "timeout"
             | Trapped msg -> "trapped: " ^ msg);
           divergence = !divergence;
           metrics = Metrics.to_assoc metrics });
  { outcome = !outcome; barrier_divergence = !divergence; metrics }

(* ------------------------------------------------------------------ *)
(* Deterministic fixed-schedule replay                                  *)

type rthread = {
  r_ctx : Code.tctx;
  r_code : Code.t;
  mutable r_pc : int;
  mutable r_draining : bool;
  mutable r_at_barrier : bool;
  mutable r_done : bool;
}

(* Replay an Mcheck witness: the schedule, not the rng, decides every
   thread step and every store-buffer commit.  One [Sstep] executes one
   statement op ([Ojump] glue is followed for free, and a thread whose
   next op is the kernel's trailing [Oreturn] finishes as part of the
   same step, mirroring Mcheck's one-transition-per-statement account);
   one [Scommit (tid, n)] commits the n-th pending FIFO entry through
   the ordinary Memsys commit path.  Replay shares Mcheck's program
   restrictions and validates the schedule as it goes: stepping a
   finished/draining/parked/blocked thread, a bad commit index, or a
   schedule that ends before quiescence all [Failure]. *)
let run_schedule t ?blocks ~threads ~args ~watch_mem ~watch_regs schedule =
  if List.length threads <> List.length args then
    invalid_arg "Sim.run_schedule: threads/args length mismatch";
  let n = List.length threads in
  let lay = Sc_ref.layouts ?blocks n in
  let bid_of = Array.map (fun (_, b, _, _) -> b) lay in
  Memsys.reset_threads t.mem ~nthreads:n;
  let weak = not (Memsys.strong t.mem) in
  let reorders_before = Memsys.reorders t.mem in
  let ths =
    Array.of_list
      (List.mapi
         (fun i (k : Kernel.t) ->
           let code = Code.compile k in
           let l_tid, l_bid, l_bdim, l_gdim = lay.(i) in
           let ctx = Code.make_ctx ~gid:i ~mem:t.mem in
           Code.arm ctx code ~params:(Code.bind code (List.nth args i)) ~l_tid
             ~l_bid ~l_bdim ~l_gdim ~shared:(Array.make 1 0);
           { r_ctx = ctx; r_code = code; r_pc = 0; r_draining = false;
             r_at_barrier = false; r_done = false })
         threads)
  in
  let invalid fmt = Fmt.failwith ("Sim.run_schedule: " ^^ fmt) in
  let bounds a =
    if a < 0 || a >= Memsys.words t.mem then
      invalid "out-of-bounds global access %d" a
  in
  let rec settle_pc th =
    match th.r_code.Code.ops.(th.r_pc) with
    | Code.Ojump tgt ->
      th.r_pc <- tgt;
      settle_pc th
    | _ -> ()
  in
  let rec finish th =
    th.r_done <- true;
    check_release bid_of.(th.r_ctx.Code.gid)
  and check_release b =
    let members = ref [] in
    for i = n - 1 downto 0 do
      if bid_of.(i) = b then members := i :: !members
    done;
    let members = !members in
    let live = List.filter (fun i -> not ths.(i).r_done) members in
    let waiting = List.filter (fun i -> ths.(i).r_at_barrier) members in
    if live <> [] && List.length waiting = List.length live then begin
      if List.length live < List.length members then invalid "barrier divergence";
      List.iter (fun i -> ignore (Memsys.drain t.mem ~tid:i)) members;
      List.iter
        (fun i ->
          let th = ths.(i) in
          if th.r_at_barrier then begin
            th.r_at_barrier <- false;
            settle_pc th;
            try_finish th
          end)
        members
    end
  and try_finish th =
    if (not th.r_done) && (not th.r_draining) && not th.r_at_barrier then
      match th.r_code.Code.ops.(th.r_pc) with
      | Code.Oreturn when th.r_pc = Array.length th.r_code.Code.ops - 1 ->
        finish th
      | _ -> ()
  in
  let exec_op th =
    let ctx = th.r_ctx in
    let gid = ctx.Code.gid in
    match th.r_code.Code.ops.(th.r_pc) with
    | Code.Oassign (i, ev) ->
      Code.set_reg ctx i (ev ctx);
      th.r_pc <- th.r_pc + 1
    | Code.Oload { dst; space = Kernel.Global; addr; _ } ->
      let a = addr ctx in
      bounds a;
      let p = Memsys.load t.mem ~tid:gid ~addr:a in
      if weak then ctx.Code.pend.(dst) <- p
      else Code.set_reg ctx dst (Memsys.force t.mem ~tid:gid p);
      th.r_pc <- th.r_pc + 1
    | Code.Ostore { space = Kernel.Global; addr; value; _ } ->
      let a = addr ctx in
      let v = value ctx in
      bounds a;
      Memsys.store t.mem ~tid:gid ~addr:a ~value:v;
      th.r_pc <- th.r_pc + 1
    | Code.Oatomic { dst; space = Kernel.Global; addr; prepare; _ } ->
      let a = addr ctx in
      bounds a;
      let f = prepare ctx in
      let old = Memsys.atomic t.mem ~tid:gid ~addr:a f in
      (match dst with
      | Some i -> Code.set_reg ctx i old
      | None -> ());
      th.r_pc <- th.r_pc + 1
    | Code.Oload _ | Code.Ostore _ | Code.Oatomic _ ->
      invalid "shared memory is not supported"
    | Code.Ofence _ ->
      th.r_pc <- th.r_pc + 1;
      if weak && Memsys.pending_count t.mem ~tid:gid > 0 then
        th.r_draining <- true
    | Code.Obarrier ->
      th.r_pc <- th.r_pc + 1;
      th.r_at_barrier <- true;
      check_release bid_of.(gid)
    | Code.Ojz (c, tgt) ->
      th.r_pc <- (if c ctx = 0 then tgt else th.r_pc + 1)
    | Code.Ojump _ -> assert false (* settled before exec *)
    | Code.Oreturn -> finish th
  in
  Array.iter
    (fun th ->
      settle_pc th;
      try_finish th)
    ths;
  List.iter
    (fun (stp : Mcheck.step) ->
      match stp with
      | Mcheck.Sstep ti ->
        if ti < 0 || ti >= n then invalid "bad thread id %d" ti;
        let th = ths.(ti) in
        if th.r_done then invalid "step of finished thread %d" ti;
        if th.r_draining then invalid "step of draining thread %d" ti;
        if th.r_at_barrier then invalid "step of parked thread %d" ti;
        (try exec_op th
         with Code.Unresolved _ -> invalid "step of blocked thread %d" ti);
        if not (th.r_done || th.r_at_barrier) then begin
          settle_pc th;
          try_finish th
        end
      | Mcheck.Scommit (ti, k) ->
        if ti < 0 || ti >= n then invalid "bad thread id %d" ti;
        Memsys.commit_nth t.mem ~tid:ti ~n:k;
        let th = ths.(ti) in
        if th.r_draining && Memsys.pending_count t.mem ~tid:ti = 0 then begin
          th.r_draining <- false;
          settle_pc th;
          try_finish th
        end)
    schedule;
  Array.iteri
    (fun i th ->
      if not th.r_done then invalid "incomplete schedule: thread %d unfinished" i;
      if Memsys.pending_count t.mem ~tid:i > 0 then
        invalid "incomplete schedule: thread %d has pending entries" i)
    ths;
  let memory =
    List.sort compare (List.map (fun a -> (a, Memsys.read t.mem a)) watch_mem)
  in
  let registers =
    List.sort compare
      (List.map
         (fun (ti, r) ->
           let th = ths.(ti) in
           let v =
             match Code.reg_slot th.r_code r with
             | None -> 0
             | Some s ->
               let p = th.r_ctx.Code.pend.(s) in
               if p == Memsys.no_pending then th.r_ctx.Code.regs.(s)
               else Memsys.force t.mem ~tid:ti p
           in
           (ti, r, v))
         watch_regs)
  in
  ({ Sc_ref.memory; registers }, Memsys.reorders t.mem - reorders_before)
