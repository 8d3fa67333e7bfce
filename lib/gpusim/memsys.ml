type kind = Load_k | Store_k

type entry = {
  seq : int;
  addr : int;
  part : int;
  ekind : kind;
  store_value : int;  (* meaningful for stores *)
  mutable resolved : bool;  (* a load that has its value *)
  mutable load_value : int;  (* meaningful once [resolved] *)
  leak : bool;  (* exempt from same-partition FIFO (GTX 980 quirk) *)
  mutable alive : bool;  (* still pending in its thread's queue *)
}

type pending = entry

(* A placeholder for unused queue slots; never enqueued, never committed,
   so its mutable fields are never written. *)
let dummy_entry =
  { seq = 0; addr = 0; part = 0; ekind = Load_k; store_value = 0;
    resolved = false; load_value = 0; leak = false; alive = false }

let no_pending = dummy_entry

(* Per-thread pending FIFO as a preallocated slot array, reused across
   launches and across runs (allocation discipline: the former
   representation was an [entry list ref] rebuilt by [List.filter] on
   every commit and copied whole by [q := !q @ [e]] on every issue).
   Entries live in [buf.(head .. tail-1)] in issue (FIFO) order; a
   committed entry is tombstoned in place ([alive = false]) because
   commits can happen mid-queue (partition heads).  [head] always points
   at a live entry while [live > 0]; vacated slots are re-pointed at
   [dummy_entry] so retired entries stay collectable. *)
type queue = {
  mutable buf : entry array;
  mutable head : int;  (* first live slot (when live > 0) *)
  mutable tail : int;  (* one past the last used slot *)
  mutable live : int;  (* pending entries, i.e. the logical length *)
}

let new_queue () = { buf = Array.make 8 dummy_entry; head = 0; tail = 0; live = 0 }

let q_reset q =
  if q.tail > 0 then Array.fill q.buf 0 q.tail dummy_entry;
  q.head <- 0;
  q.tail <- 0;
  q.live <- 0

(* Advance [head] past tombstones (or reset the slot window when the
   queue empties), clearing vacated slots. *)
let q_settle q =
  if q.live = 0 then begin
    if q.tail > q.head then Array.fill q.buf q.head (q.tail - q.head) dummy_entry;
    q.head <- 0;
    q.tail <- 0
  end
  else
    while not q.buf.(q.head).alive do
      q.buf.(q.head) <- dummy_entry;
      q.head <- q.head + 1
    done

(* Append at the tail; when the slot window is exhausted, compact the
   live entries to the front (tombstones are dropped), doubling the slot
   array only if it is genuinely full of live entries.  Amortised
   allocation-free once the buffer has grown to the chip's queue
   capacity. *)
let q_push q e =
  let cap = Array.length q.buf in
  if q.tail = cap then begin
    let dst = if q.live = cap then Array.make (cap * 2) dummy_entry else q.buf in
    let j = ref 0 in
    for i = q.head to q.tail - 1 do
      let e' = q.buf.(i) in
      if e'.alive then begin
        dst.(!j) <- e';
        incr j
      end
    done;
    if dst == q.buf then Array.fill dst !j (q.tail - !j) dummy_entry;
    q.buf <- dst;
    q.head <- 0;
    q.tail <- !j
  end;
  q.buf.(q.tail) <- e;
  q.tail <- q.tail + 1;
  q.live <- q.live + 1

(* Pattern state of one stressing thread, used by the chip's traffic
   response (Sec. 3.3): consecutive-access run lengths and the kind of the
   previous access decide how much contention an access generates.
   [prev] is encoded as an int (0 none / 1 load / 2 store) so updating it
   allocates nothing. *)
type stress_state = {
  mutable prev : int;
  mutable run : int;
}

let prev_code = function Load_k -> 1 | Store_k -> 2

(* Threads with pending entries.  [random_background_drain] picks its
   thread by position in this set, so the set enumerates its members in
   exactly the order in which the [(int, unit) Hashtbl.t] it replaced,
   created with 64 buckets and the unseeded [Hashtbl.hash], iterated
   them: every seeded schedule depends on that order.  The order is

   - buckets by increasing [Hashtbl.hash tid land (buckets - 1)];
   - newest member first within a bucket (an insertion conses onto its
     bucket; removals and resizes keep the relative order);
   - [buckets] doubles when an insertion takes the size past twice the
     bucket count, splitting each bucket in order, and returns to 64 on
     a reset.

   [members.(0 .. size-1)] holds the set in that order, so picking the
   i-th member is one array read, with no closure and no bucket walk.  A
   new member goes first among its bucket's members and a doubling is a
   stable sort by the new bucket index; both shift O(size) ints, and
   size is at most the launch's application thread count.  Hashing with
   the unseeded hash, where a table would take its seed from
   OCAMLRUNPARAM=R, keeps the order, and so every campaign, independent
   of that setting. *)
type pending_set = {
  mutable members : int array;
  mutable size : int;
  mutable pos : int array;  (* tid -> index in [members], or -1 *)
  mutable hash : int array;  (* tid -> [Hashtbl.hash tid], computed once *)
  mutable buckets : int;
}

let initial_buckets = 64

let ps_create n =
  { members = Array.make n 0; size = 0; pos = Array.make n (-1);
    hash = Array.init n Hashtbl.hash; buckets = initial_buckets }

let ps_grow s n =
  let cap = Array.length s.pos in
  if cap < n then begin
    let members = Array.make n 0 and pos = Array.make n (-1) in
    Array.blit s.members 0 members 0 cap;
    Array.blit s.pos 0 pos 0 cap;
    s.members <- members;
    s.pos <- pos;
    s.hash <- Array.init n Hashtbl.hash
  end

let ps_reset s =
  for i = 0 to s.size - 1 do
    s.pos.(s.members.(i)) <- -1
  done;
  s.size <- 0;
  s.buckets <- initial_buckets

let[@inline] ps_bucket s tid = s.hash.(tid) land (s.buckets - 1)

let ps_add s tid =
  if s.pos.(tid) < 0 then begin
    let b = ps_bucket s tid in
    let p = ref 0 in
    while !p < s.size && ps_bucket s s.members.(!p) < b do
      incr p
    done;
    for i = s.size downto !p + 1 do
      let m = s.members.(i - 1) in
      s.members.(i) <- m;
      s.pos.(m) <- i
    done;
    s.members.(!p) <- tid;
    s.pos.(tid) <- !p;
    s.size <- s.size + 1;
    if s.size > 2 * s.buckets then begin
      s.buckets <- 2 * s.buckets;
      for i = 1 to s.size - 1 do
        let m = s.members.(i) in
        let b = ps_bucket s m in
        let j = ref i in
        while !j > 0 && ps_bucket s s.members.(!j - 1) > b do
          s.members.(!j) <- s.members.(!j - 1);
          decr j
        done;
        s.members.(!j) <- m
      done;
      for i = 0 to s.size - 1 do
        s.pos.(s.members.(i)) <- i
      done
    end
  end

let ps_remove s tid =
  let p = s.pos.(tid) in
  if p >= 0 then begin
    for i = p to s.size - 2 do
      let m = s.members.(i + 1) in
      s.members.(i) <- m;
      s.pos.(m) <- i
    done;
    s.size <- s.size - 1;
    s.pos.(tid) <- -1
  end

type t = {
  chip : Chip.t;
  part_shift : int;  (* -1 unless [partition] can shift and mask *)
  part_mask : int;
  rng : Rng.t;
  global : int array;
  mutable written : int;
      (* one past the highest address written since the last reset: the
         prefix of [global] that [reset_device] must zero.  Every write to
         [global] calls [wrote] after it. *)
  mutable queues : queue array;
      (* per-thread pending FIFOs; sized to the high-water thread count
         and reused across launches *)
  mutable seq : int;
  mutable now : int;
  (* contention pools per partition, with lazy exponential decay *)
  read_pool : float array;
  write_pool : float array;
  pool_stamp : int array;
  decay_pow : float array;
  (* stressing pattern state, dense by stress thread id; [stress_gen]
     carries a per-launch generation stamp so clearing all states is one
     integer bump instead of a table walk *)
  mutable stress_states : stress_state array;
  mutable stress_gen : int array;
  mutable cur_gen : int;
  nonempty : pending_set;  (* threads with pending entries *)
  (* scratch for [attempt_commits]: the partition-head snapshot and the
     seen-partition stamps, preallocated so the hot path allocates
     nothing *)
  heads_scratch : entry array;
  seen_stamp : int array;
  mutable seen_gen : int;
  sink : Trace.t;  (* the device's trace sink; shared with Sim *)
  mutable n_reorders : int;
  mutable n_stress : int;  (* stress accesses performed, a tuning statistic *)
  mutable stress_gain : float;
      (* per-launch intensity of stressing accesses; models the hardware
         parallelism of concentrated stress (see Stress.spec intensity) *)
  strong : bool;
  mutable soft : (Rng.t * float) option;
      (* armed soft-error injection: (dedicated rng, per-store flip
         probability).  The rng is never [t.rng], so arming injection does
         not perturb the simulated execution itself. *)
  mutable n_bitflips : int;
}

let strong t = t.strong

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)
let pow2 n = n > 0 && n land (n - 1) = 0

let create ~chip ~rng ~words ~nthreads =
  let w = chip.Chip.weakness in
  let n = w.n_partitions in
  let decay_pow = Array.make 128 0.0 in
  decay_pow.(0) <- 1.0;
  for i = 1 to 127 do
    decay_pow.(i) <- decay_pow.(i - 1) *. w.decay_per_tick
  done;
  { chip; rng; global = Array.make words 0; written = 0;
    part_shift = (if pow2 w.patch_size && pow2 n then log2 w.patch_size else -1);
    part_mask = n - 1;
    queues = Array.init nthreads (fun _ -> new_queue ());
    seq = 0; now = 0;
    read_pool = Array.make n 0.0;
    write_pool = Array.make n 0.0;
    pool_stamp = Array.make n 0;
    decay_pow;
    stress_states =
      Array.init nthreads (fun _ -> { prev = 0; run = 0 });
    stress_gen = Array.make nthreads 0;
    cur_gen = 0;
    nonempty = ps_create nthreads;
    heads_scratch = Array.make (Int.max 1 w.queue_cap) dummy_entry;
    seen_stamp = Array.make n 0;
    seen_gen = 0;
    sink = Trace.create ();
    n_reorders = 0;
    n_stress = 0;
    stress_gain = 1.0;
    strong = w.max_delay <= 0.0 && w.base_delay <= 0.0;
    soft = None;
    n_bitflips = 0 }

(* Called after the write, so an out-of-bounds address has raised
   before it can raise the mark past the device. *)
let[@inline] wrote t addr = if addr >= t.written then t.written <- addr + 1

let read t addr = t.global.(addr)

let write t addr v =
  t.global.(addr) <- v;
  wrote t addr

let words t = Array.length t.global

let[@inline] partition t addr =
  if t.part_shift >= 0 then (addr lsr t.part_shift) land t.part_mask
  else Chip.partition t.chip addr

let set_stress_gain t g = t.stress_gain <- g

let grow_thread_state t ~nthreads =
  ps_grow t.nonempty nthreads;
  let cap = Array.length t.queues in
  if cap < nthreads then begin
    let old = t.queues in
    t.queues <-
      Array.init nthreads (fun i -> if i < cap then old.(i) else new_queue ())
  end;
  let scap = Array.length t.stress_states in
  if scap < nthreads then begin
    let old = t.stress_states and old_gen = t.stress_gen in
    t.stress_states <-
      Array.init nthreads (fun i ->
          if i < scap then old.(i) else { prev = 0; run = 0 });
    t.stress_gen <-
      Array.init nthreads (fun i -> if i < scap then old_gen.(i) else 0)
  end

let reset_threads t ~nthreads =
  grow_thread_state t ~nthreads;
  Array.iter q_reset t.queues;
  Array.fill t.read_pool 0 (Array.length t.read_pool) 0.0;
  Array.fill t.write_pool 0 (Array.length t.write_pool) 0.0;
  Array.fill t.pool_stamp 0 (Array.length t.pool_stamp) 0;
  t.cur_gen <- t.cur_gen + 1;
  ps_reset t.nonempty

let reset_device t =
  Array.fill t.global 0 t.written 0;
  t.written <- 0;
  Array.iter q_reset t.queues;
  Array.fill t.read_pool 0 (Array.length t.read_pool) 0.0;
  Array.fill t.write_pool 0 (Array.length t.write_pool) 0.0;
  Array.fill t.pool_stamp 0 (Array.length t.pool_stamp) 0;
  t.cur_gen <- t.cur_gen + 1;
  ps_reset t.nonempty;
  t.seq <- 0;
  t.now <- 0;
  t.n_reorders <- 0;
  t.n_stress <- 0;
  t.stress_gain <- 1.0;
  t.soft <- None;
  t.n_bitflips <- 0;
  Trace.reset t.sink

let tick t = t.now <- t.now + 1

let rand t bound = if bound <= 0 then 0 else Rng.int t.rng bound

let sink t = t.sink
let now t = t.now

let observe_access t ~tid ~addr ~write ~atomic =
  if Trace.active t.sink then
    Trace.emit t.sink ~tick:t.now (Trace.Access { tid; addr; write; atomic })

let reorders t = t.n_reorders
let stress_accesses t = t.n_stress

let set_soft_errors t soft = t.soft <- soft
let bitflips t = t.n_bitflips

(* A transient soft error on a committing store: flip one low bit of the
   value as it lands in global memory (gpuFI-style).  Drawn from the
   dedicated soft-error rng so the schedule of the simulated execution is
   untouched; only the stored value differs. *)
let maybe_flip t ~tid ~addr v =
  match t.soft with
  | None -> v
  | Some (rng, rate) ->
    if rate > 0.0 && Rng.chance rng rate then begin
      let bit = Rng.int rng 30 in
      let v' = v lxor (1 lsl bit) in
      t.n_bitflips <- t.n_bitflips + 1;
      if Trace.active t.sink then
        Trace.emit t.sink ~tick:t.now
          (Trace.Bitflip { tid; addr; bit; before = v; after = v' });
      v'
    end
    else v

(* ------------------------------------------------------------------ *)
(* Contention pools                                                     *)

(* The per-access arithmetic below is [@inline]: without flambda a float
   passed to or returned from a function that is not inlined is boxed,
   which cost a few words on every stressing access and commit attempt.
   Inlined, and with [Rng.chance] inlined too, the floats stay in
   registers from the pools to the commit coin's compare. *)

let refresh_pool t part =
  let dt = t.now - t.pool_stamp.(part) in
  if dt > 0 then begin
    let f = if dt < 128 then t.decay_pow.(dt) else 0.0 in
    t.read_pool.(part) <- t.read_pool.(part) *. f;
    t.write_pool.(part) <- t.write_pool.(part) *. f;
    t.pool_stamp.(part) <- t.now
  end

let[@inline] add_contention t part ckind amount =
  refresh_pool t part;
  match ckind with
  | `Load -> t.read_pool.(part) <- t.read_pool.(part) +. amount
  | `Store -> t.write_pool.(part) <- t.write_pool.(part) +. amount

let[@inline] contention t ~part ~kind =
  refresh_pool t part;
  let w = t.chip.Chip.weakness in
  match kind with
  | `Load -> t.read_pool.(part) +. (w.cross *. t.write_pool.(part))
  | `Store -> t.write_pool.(part) +. (w.cross *. t.read_pool.(part))

let stress_state t sid =
  if sid >= Array.length t.stress_states then
    grow_thread_state t ~nthreads:(sid + 1);
  let s = t.stress_states.(sid) in
  if t.stress_gen.(sid) <> t.cur_gen then begin
    t.stress_gen.(sid) <- t.cur_gen;
    s.prev <- 0;
    s.run <- 0
  end;
  s

(* Contention generated by one stressing access, given the thread's access
   pattern so far.  At a loop boundary the pattern linkage to the previous
   iteration is weakened by the chip's boundary factor, which is why
   rotations of a stressing sequence are not equally effective. *)
let[@inline] traffic_bump t st k ~boundary =
  let tr = t.chip.Chip.traffic in
  let kc = prev_code k in
  let same = st.prev = kc in
  let run = if same then st.run + 1 else 1 in
  let runfac_arr = match k with Load_k -> tr.run_ld | Store_k -> tr.run_st in
  let runfac = runfac_arr.(Int.min run (Array.length runfac_arr) - 1) in
  (* Run lengths persist across loop iterations: an all-store (or
     all-load) loop degenerates to one endless run whose pressure decays
     to the run table's tail, which is why pure sequences are the worst
     stressors (Table 3).  The loop boundary only perturbs the
     pattern-dependent bonuses, scaled by the chip's boundary factor --
     the reason rotations of a sequence are not equally effective. *)
  let bf = if boundary then tr.boundary_factor else 1.0 in
  let base = (match k with Load_k -> tr.w_ld | Store_k -> tr.w_st) *. runfac in
  let trans =
    if st.prev <> 0 && st.prev <> kc then tr.trans_bonus *. bf else 0.0
  in
  let flush =
    if k = Store_k && st.prev = prev_code Load_k then
      tr.flush_bonus *. float_of_int (Int.min st.run tr.flush_cap) *. bf
    else 0.0
  in
  if same then st.run <- run
  else begin
    st.run <- 1;
    st.prev <- kc
  end;
  base +. trans +. flush

let stress_access t ~sid ~kind ~addr ~boundary =
  t.n_stress <- t.n_stress + 1;
  let k = match kind with `Load -> Load_k | `Store -> Store_k in
  let st = stress_state t sid in
  let amount = traffic_bump t st k ~boundary *. t.stress_gain in
  let part = partition t addr in
  add_contention t part kind amount;
  (* Touch memory so stressing is a real workload, not only bookkeeping. *)
  match kind with
  | `Load -> ignore (t.global.(addr))
  | `Store ->
    t.global.(addr) <- sid;
    wrote t addr

let app_access_bump = 0.02

let app_access t ~kind ~addr =
  let part = partition t addr in
  add_contention t part kind app_access_bump

(* ------------------------------------------------------------------ *)
(* Pending queues                                                       *)

let queue t tid = t.queues.(tid)

let mark_nonempty t tid q =
  if q.live = 0 then ps_remove t.nonempty tid else ps_add t.nonempty tid

(* Resolve a load's value: forward from the newest older pending store of
   the same thread to the same address, else read memory. *)
let load_value t tid e =
  let q = queue t tid in
  let v = ref 0 and found = ref false in
  for i = q.head to q.tail - 1 do
    let e' = q.buf.(i) in
    if e'.alive && e'.ekind == Store_k && e'.addr = e.addr && e'.seq < e.seq
    then begin
      v := e'.store_value;
      found := true
    end
  done;
  if !found then !v else t.global.(e.addr)

(* Commit one entry: apply its global effect and remove it.  An entry
   that overtakes an older pending one is a visible weak-memory event:
   counted, and reported on the trace sink as a [Reorder] (the feed of
   the Diagnosis observer). *)
let commit t tid e =
  let q = queue t tid in
  (match e.ekind with
  | Store_k ->
    t.global.(e.addr) <- maybe_flip t ~tid ~addr:e.addr e.store_value;
    wrote t e.addr
  | Load_k ->
    if not e.resolved then begin
      e.load_value <- load_value t tid e;
      e.resolved <- true
    end);
  e.alive <- false;
  q.live <- q.live - 1;
  (* [older]: does a live entry issued before [e] remain?  [overtaken]
     tracks the newest such entry's address (FIFO scan, last match), which
     is what the former [List.fold_left] over the filtered list reported. *)
  let older = ref false and overtaken = ref 0 in
  for i = q.head to q.tail - 1 do
    let e' = q.buf.(i) in
    if e'.alive && e'.seq < e.seq then begin
      older := true;
      overtaken := e'.addr
    end
  done;
  q_settle q;
  mark_nonempty t tid q;
  if !older then t.n_reorders <- t.n_reorders + 1;
  if Trace.active t.sink then begin
    Trace.emit t.sink ~tick:t.now
      (Trace.Commit
         { tid; addr = e.addr; is_store = (e.ekind = Store_k);
           value =
             (match e.ekind with
             | Store_k -> e.store_value
             | Load_k -> e.load_value);
           reordered = !older });
    if !older then
      Trace.emit t.sink ~tick:t.now
        (Trace.Reorder { tid; overtaken = !overtaken; committed = e.addr })
  end

let pending_count t ~tid = (queue t tid).live

(* Whether entry [e]'s commit is delayed this attempt:
   [Rng.chance t.rng (Float.min w.max_delay d)] for its contention delay
   [d].  The minimum is taken by compares, so the usual case neither
   makes [Float.min]'s two [sign_bit] C calls nor boxes the probability;
   ties and nans still take [Float.min]. *)
let[@inline] delayed t e =
  let w = t.chip.Chip.weakness in
  let kind = match e.ekind with Load_k -> `Load | Store_k -> `Store in
  let c = contention t ~part:e.part ~kind in
  let factor = c *. c /. ((w.knee *. w.knee) +. (c *. c)) in
  let kw = match e.ekind with
    | Load_k -> w.ld_delay_w
    | Store_k -> w.st_delay_w
  in
  let d = w.base_delay +. (w.gain *. factor *. kw) in
  if d < w.max_delay then Rng.chance t.rng d
  else if w.max_delay < d then Rng.chance t.rng w.max_delay
  else Rng.chance t.rng (Float.min w.max_delay d)

(* Partition heads: entries with no older pending entry in the same
   partition.  Leaking entries (980 quirk) are exempt in both directions.
   The snapshot lands in [heads_scratch] (at most [queue_cap] entries, so
   the scratch never grows); seen-partition bookkeeping uses generation
   stamps so nothing is cleared or allocated per call. *)
let attempt_commits t ~tid =
  let q = queue t tid in
  if q.live > 0 then begin
    t.seen_gen <- t.seen_gen + 1;
    let gen = t.seen_gen in
    let n = ref 0 in
    for i = q.head to q.tail - 1 do
      let e = q.buf.(i) in
      if e.alive then
        if e.leak then begin
          t.heads_scratch.(!n) <- e;
          incr n
        end
        else if t.seen_stamp.(e.part) <> gen then begin
          t.seen_stamp.(e.part) <- gen;
          t.heads_scratch.(!n) <- e;
          incr n
        end
    done;
    for i = 0 to !n - 1 do
      let e = t.heads_scratch.(i) in
      if not (delayed t e) then commit t tid e
    done;
    Array.fill t.heads_scratch 0 !n dummy_entry
  end

let drain t ~tid =
  let q = queue t tid in
  let n = q.live in
  (* Sequence order: no reordering is introduced by a fence.  The loop
     bounds are fixed up front; commits only tombstone entries, never
     move them, so the FIFO walk visits exactly the pre-drain pending
     set. *)
  let t0 = q.tail in
  for i = q.head to t0 - 1 do
    let e = q.buf.(i) in
    if e.alive then commit t tid e
  done;
  n

let drain_step t ~tid =
  let q = queue t tid in
  if q.live > 0 then commit t tid q.buf.(q.head);
  q.live = 0

(* Commit the [n]-th live entry (FIFO position) of [tid]'s queue.  This
   is the replay hook: a model-checker witness identifies commits by
   queue position, not entry id, so replay is insensitive to slot-window
   compaction. *)
let commit_nth t ~tid ~n =
  let q = queue t tid in
  if n < 0 || n >= q.live then
    invalid_arg
      (Printf.sprintf "Memsys.commit_nth: index %d out of 0..%d" n
         (q.live - 1));
  let k = ref n and i = ref q.head and chosen = ref dummy_entry in
  while !chosen == dummy_entry do
    let e = q.buf.(!i) in
    if e.alive then
      if !k = 0 then chosen := e else decr k;
    incr i
  done;
  commit t tid !chosen

let any_pending t = t.nonempty.size > 0

let random_background_drain t =
  let s = t.nonempty in
  if s.size > 0 then attempt_commits t ~tid:s.members.(Rng.int t.rng s.size)

let fresh_entry t ~addr ~ekind ~store_value =
  let w = t.chip.Chip.weakness in
  t.seq <- t.seq + 1;
  { seq = t.seq; addr; part = partition t addr; ekind; store_value;
    resolved = false; load_value = 0;
    leak = w.same_patch_leak > 0.0 && Rng.chance t.rng w.same_patch_leak;
    alive = false }

let enqueue t tid e =
  if Trace.active t.sink then
    Trace.emit t.sink ~tick:t.now
      (Trace.Issue
         { tid; addr = e.addr; part = e.part; is_store = (e.ekind = Store_k) });
  let q = queue t tid in
  let w = t.chip.Chip.weakness in
  if q.live >= w.queue_cap && q.live > 0 then
    (* Capacity pressure: retire the oldest entry first. *)
    commit t tid q.buf.(q.head);
  e.alive <- true;
  q_push q e;
  mark_nonempty t tid q

let load t ~tid ~addr =
  observe_access t ~tid ~addr ~write:false ~atomic:false;
  if t.strong then begin
    t.seq <- t.seq + 1;
    { seq = t.seq; addr; part = 0; ekind = Load_k; store_value = 0;
      resolved = true; load_value = t.global.(addr); leak = false;
      alive = false }
  end
  else begin
    let e = fresh_entry t ~addr ~ekind:Load_k ~store_value:0 in
    enqueue t tid e;
    e
  end

let resolved (e : entry) = e.resolved

let force t ~tid e =
  if e.resolved then e.load_value
  else begin
    (* Still pending: resolving now is an early (possibly out-of-order)
       commit forced by a dependency. *)
    commit t tid e;
    assert e.resolved;
    e.load_value
  end

let store t ~tid ~addr ~value =
  observe_access t ~tid ~addr ~write:true ~atomic:false;
  if t.strong then begin
    t.global.(addr) <- maybe_flip t ~tid ~addr value;
    wrote t addr
  end
  else enqueue t tid (fresh_entry t ~addr ~ekind:Store_k ~store_value:value)

let atomic t ~tid ~addr f =
  observe_access t ~tid ~addr ~write:true ~atomic:true;
  if not t.strong then begin
    (* The atomic must observe this thread's program-order past on the
       same address, so retire pending same-address entries first. *)
    let q = queue t tid in
    let t0 = q.tail in
    for i = q.head to t0 - 1 do
      let e = q.buf.(i) in
      if e.alive && e.addr = addr then commit t tid e
    done;
    (* The atomic takes effect now while older plain operations are still
       pending: the unlock-overtakes-critical-section hazard.  Record each
       bypassed entry as a reordering event for the diagnostics. *)
    for i = q.head to q.tail - 1 do
      let e = q.buf.(i) in
      if e.alive then begin
        t.n_reorders <- t.n_reorders + 1;
        if Trace.active t.sink then
          Trace.emit t.sink ~tick:t.now
            (Trace.Reorder { tid; overtaken = e.addr; committed = addr })
      end
    done
  end;
  let old = t.global.(addr) in
  t.global.(addr) <- f old;
  wrote t addr;
  if Trace.active t.sink then
    Trace.emit t.sink ~tick:t.now
      (Trace.Atomic_rmw { tid; addr; before = old; after = t.global.(addr) });
  old
