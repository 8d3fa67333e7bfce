(* Bounded stateless model checking of the weak machine.

   The state space is the product of per-thread continuations (as in
   Sc_ref) and per-thread store-buffer FIFOs (as in Memsys): a transition
   either *steps* a thread (execute one statement, possibly issuing a
   pending entry) or *commits* one pending entry to global memory.  The
   commit rules — partition-head eligibility, reorder counting, load
   forwarding, fence drains, capacity eviction, atomic pre-commit —
   mirror Memsys exactly but with the contention-delay dice replaced by
   explicit nondeterminism, so the reachable final states form a
   superset of anything a seeded Sim run can produce, and every explored
   schedule can be replayed step-for-step through Sim.run_schedule.

   Exploration is a DFS with sleep sets (Godefroid-style dynamic
   partial-order reduction): after a transition [t] has been fully
   explored from a node, later siblings inherit [t] in their sleep set
   and skip it unless a dependent transition intervenes.  Sleep sets
   preserve all terminal states, which is what the verdict is computed
   from.  Soundness notes specific to this machine:

   - Same-thread transitions are always dependent, so the FIFO position
     and reorder flag of a commit are invariants of its Mazurkiewicz
     trace class: pruning on the reorder *bound* composes with sleep
     sets (an equivalent reordering of a pruned trace is pruned too).
   - Issue transitions of different threads commute only up to entry-id
     renaming; ids never escape into final-state projections and sleep
     sets are only consulted along a single DFS path, so the renaming is
     a symmetry and pruning stays sound.
   - Barrier steps (and thread exits in multi-member blocks) are
     treated as globally dependent; they are never slept. *)

module IMap = Map.Make (Int)
module SMap = Map.Make (String)

type step = Sstep of int | Scommit of int * int

type program = {
  threads : Kernel.t list;
  args : (string * int) list list;
  blocks : int array option;
  init : (int * int) list;
  watch_mem : int list;
  watch_regs : (int * string) list;
}

type witness = {
  state : Sc_ref.state;
  schedule : step list;
  reorders : int;
}

type stats = {
  explored : int;
  sleep_pruned : int;
  bound_pruned : int;
  completed : int;
  roots : int;
}

type verdict = Proved_sc | Weak of witness list

type result = {
  verdict : verdict;
  reachable : witness list;
  sc_states : Sc_ref.state list;
  stats : stats;
}

let pp_step ppf = function
  | Sstep t -> Fmt.pf ppf "S%d" t
  | Scommit (t, n) -> Fmt.pf ppf "C%d.%d" t n

let schedule_to_string sch =
  String.concat " " (List.map (Fmt.str "%a" pp_step) sch)

(* ------------------------------------------------------------------ *)
(* Machine state (immutable: the DFS backtracks by dropping it)        *)

exception Blocked

type ekind = Eload | Estore

type ent = {
  id : int;  (* stable name for DPOR keys; FIFO position is positional *)
  addr : int;
  part : int;
  ek : ekind;
  sval : int;  (* store value; ignored for loads *)
}

type rval = Rv of int | Rp of int  (* Rp id: value of a pending load *)

type phase = Ready | Draining | AtBarrier | Finished

type tstate = {
  work : Kernel.stmt list;
  regs : rval SMap.t;
  queue : ent list;  (* FIFO, oldest first; only live entries *)
  phase : phase;
}

type mstate = {
  mem : int IMap.t;
  resolved : int IMap.t;  (* committed-load entry id -> value *)
  ths : tstate array;  (* copied on write *)
  reorders : int;
  next_id : int;
}

type geom = {
  n : int;
  lay : (int * int * int * int) array;  (* (tid, bid, bdim, gdim) *)
  bid_of : int array;  (* canonical block id per thread *)
  args : (string * int) list array;
  strong : bool;
  queue_cap : int;
  leak : bool;  (* same_patch_leak > 0: any entry may commit *)
  chip : Chip.t;
  words : int;
}

let with_th st ti ts =
  let ths = Array.copy st.ths in
  ths.(ti) <- ts;
  { st with ths }

let mem_find st a = match IMap.find_opt a st.mem with Some v -> v | None -> 0

let bounds g a =
  if a < 0 || a >= g.words then
    invalid_arg (Printf.sprintf "Mcheck: global access out of bounds: %d" a)

let rec eval g st ti (e : Kernel.exp) =
  let ts = st.ths.(ti) in
  match e with
  | Kernel.Int n -> n
  | Kernel.Reg r -> (
    match SMap.find_opt r ts.regs with
    | Some (Rv v) -> v
    | Some (Rp id) -> (
      match IMap.find_opt id st.resolved with
      | Some v -> v
      | None -> raise Blocked)
    | None -> 0)
  | Kernel.Param p -> (
    match List.assoc_opt p g.args.(ti) with
    | Some v -> v
    | None -> invalid_arg ("Mcheck: missing argument " ^ p))
  | Kernel.Special sp ->
    let l_tid, bid, bdim, gdim = g.lay.(ti) in
    (match sp with
    | Kernel.Tid -> l_tid
    | Kernel.Bid -> bid
    | Kernel.Bdim -> bdim
    | Kernel.Gdim -> gdim)
  | Kernel.Binop (op, a, b) ->
    let va = eval g st ti a and vb = eval g st ti b in
    let bool_ c = if c then 1 else 0 in
    (match op with
    | Kernel.Add -> va + vb
    | Kernel.Sub -> va - vb
    | Kernel.Mul -> va * vb
    | Kernel.Div ->
      if vb = 0 then invalid_arg "Mcheck: division by zero" else va / vb
    | Kernel.Rem ->
      if vb = 0 then invalid_arg "Mcheck: remainder by zero" else va mod vb
    | Kernel.Band -> va land vb
    | Kernel.Bor -> va lor vb
    | Kernel.Bxor -> va lxor vb
    | Kernel.Shl -> va lsl vb
    | Kernel.Shr -> va asr vb
    | Kernel.Eq -> bool_ (va = vb)
    | Kernel.Ne -> bool_ (va <> vb)
    | Kernel.Lt -> bool_ (va < vb)
    | Kernel.Le -> bool_ (va <= vb)
    | Kernel.Gt -> bool_ (va > vb)
    | Kernel.Ge -> bool_ (va >= vb)
    | Kernel.Min -> Int.min va vb
    | Kernel.Max -> Int.max va vb)
  | Kernel.Unop (Kernel.Neg, a) -> -eval g st ti a
  | Kernel.Unop (Kernel.Lnot, a) -> if eval g st ti a = 0 then 1 else 0
  | Kernel.Rand _ -> invalid_arg "Mcheck: random expressions are not supported"

(* Commit the [n]-th (FIFO) pending entry of thread [ti].  A commit with
   an older live entry remaining — i.e. [n > 0] — is a reordering, the
   weak-memory event the bound counts.  A committing load resolves to
   the newest older same-address pending store of its own thread
   (forwarding), else to global memory: exactly Memsys.load_value. *)
let commit_entry g st ti n =
  ignore g;
  let ts = st.ths.(ti) in
  let rec split i acc = function
    | [] -> invalid_arg "Mcheck: commit index out of range"
    | e :: tl -> if i = n then (List.rev acc, e, tl) else split (i + 1) (e :: acc) tl
  in
  let before, e, after = split 0 [] ts.queue in
  let st =
    match e.ek with
    | Estore -> { st with mem = IMap.add e.addr e.sval st.mem }
    | Eload ->
      let fwd =
        List.fold_left
          (fun acc e' -> if e'.ek = Estore && e'.addr = e.addr then Some e'.sval else acc)
          None before
      in
      let v = match fwd with Some v -> v | None -> mem_find st e.addr in
      { st with resolved = IMap.add e.id v st.resolved }
  in
  let queue = before @ after in
  let phase =
    if queue = [] && ts.phase = Draining then
      if ts.work = [] then Finished else Ready
    else ts.phase
  in
  let st = with_th st ti { ts with queue; phase } in
  ({ st with reorders = st.reorders + (if n > 0 then 1 else 0) }, e)

(* Barrier release, mirroring Sim.release_barrier: when every live
   member of a block is parked at the barrier, drain every member's
   queue in thread order (FIFO, so no reorderings) and wake the parked
   ones.  A release while some member has already exited is undefined
   in CUDA and rejected, as in Sc_ref. *)
let maybe_release g st bid =
  let members = ref [] in
  for i = g.n - 1 downto 0 do
    if g.bid_of.(i) = bid then members := i :: !members
  done;
  let members = !members in
  let live = List.filter (fun i -> st.ths.(i).phase <> Finished) members in
  let waiting = List.filter (fun i -> st.ths.(i).phase = AtBarrier) members in
  if live <> [] && List.length waiting = List.length live then begin
    if List.length live < List.length members then
      invalid_arg "Mcheck: barrier divergence";
    let rec drain st i =
      if st.ths.(i).queue = [] then st else drain (fst (commit_entry g st i 0)) i
    in
    let st = List.fold_left drain st members in
    let ths = Array.copy st.ths in
    List.iter
      (fun i ->
        let ts = ths.(i) in
        if ts.phase = AtBarrier then
          ths.(i) <- { ts with phase = (if ts.work = [] then Finished else Ready) })
      members;
    { st with ths }
  end
  else st

let block_members g bid =
  let c = ref 0 in
  Array.iter (fun b -> if b = bid then incr c) g.bid_of;
  !c

(* Enqueue an entry, evicting (committing) the FIFO head first when the
   queue is at chip capacity — Memsys.enqueue's capacity pressure, which
   is never a reordering.  Returns the eviction's memory footprint. *)
let issue g st ti ek addr sval =
  let st, fp =
    let q = st.ths.(ti).queue in
    if List.length q >= g.queue_cap && q <> [] then begin
      let st, e = commit_entry g st ti 0 in
      (st, [ (e.addr, e.ek = Estore) ])
    end
    else (st, [])
  in
  let e = { id = st.next_id; addr; part = Chip.partition g.chip addr; ek; sval } in
  let ts = st.ths.(ti) in
  let st = with_th st ti { ts with queue = ts.queue @ [ e ] } in
  ({ st with next_id = st.next_id + 1 }, e, fp)

(* Execute one statement of thread [ti].  Raises [Blocked] if it reads a
   register holding an uncommitted load (the thread parks, as in Sim).
   Returns the successor state, the memory footprint of any immediate
   global effect, and whether the step is globally synchronising. *)
let apply_step g st ti =
  let ts = st.ths.(ti) in
  match ts.work with
  | [] -> invalid_arg "Mcheck: step of a finished thread"
  | s :: rest -> (
    let set_reg st r v =
      let ts = st.ths.(ti) in
      with_th st ti { ts with regs = SMap.add r v ts.regs }
    in
    let advance st work =
      let ts = st.ths.(ti) in
      with_th st ti { ts with work }
    in
    let finish_if_done (st, fp, sync) =
      let ts = st.ths.(ti) in
      if ts.work = [] && ts.phase = Ready then begin
        let st = with_th st ti { ts with phase = Finished } in
        let multi = block_members g g.bid_of.(ti) > 1 in
        (maybe_release g st g.bid_of.(ti), fp, sync || multi)
      end
      else (st, fp, sync)
    in
    match s.Kernel.instr with
    | Kernel.Assign (r, e) ->
      let v = eval g st ti e in
      finish_if_done (advance (set_reg st r (Rv v)) rest, [], false)
    | Kernel.Load { dst; space = Kernel.Global; addr } ->
      let a = eval g st ti addr in
      bounds g a;
      if g.strong then
        finish_if_done (advance (set_reg st dst (Rv (mem_find st a))) rest, [ (a, false) ], false)
      else begin
        let st, e, fp = issue g st ti Eload a 0 in
        finish_if_done (advance (set_reg st dst (Rp e.id)) rest, fp, false)
      end
    | Kernel.Store { space = Kernel.Global; addr; value } ->
      let a = eval g st ti addr in
      let v = eval g st ti value in
      bounds g a;
      if g.strong then
        finish_if_done (advance { st with mem = IMap.add a v st.mem } rest, [ (a, true) ], false)
      else begin
        let st, _, fp = issue g st ti Estore a v in
        finish_if_done (advance st rest, fp, false)
      end
    | Kernel.Atomic { dst; space = Kernel.Global; addr; op } ->
      let a = eval g st ti addr in
      bounds g a;
      (* Operands are evaluated before the atomic takes effect (they may
         block on a pending load), as in Sim's Oatomic. *)
      let f =
        match op with
        | Kernel.Acas (e, d) ->
          let e = eval g st ti e and d = eval g st ti d in
          fun old -> if old = e then d else old
        | Kernel.Aexch v ->
          let v = eval g st ti v in
          fun _ -> v
        | Kernel.Aadd v ->
          let v = eval g st ti v in
          fun old -> old + v
        | Kernel.Amin v ->
          let v = eval g st ti v in
          fun old -> Int.min old v
        | Kernel.Amax v ->
          let v = eval g st ti v in
          fun old -> Int.max old v
      in
      let st =
        if g.strong then st
        else begin
          (* Retire pending same-address entries first (program-order
             past of the atomic), with normal reorder counting; every
             other still-pending entry is overtaken by the atomic's
             immediate effect: one reordering each.  Memsys.atomic. *)
          let rec retire st =
            let q = st.ths.(ti).queue in
            let rec find i = function
              | [] -> None
              | e :: tl -> if e.addr = a then Some i else find (i + 1) tl
            in
            match find 0 q with
            | Some i -> retire (fst (commit_entry g st ti i))
            | None -> st
          in
          let st = retire st in
          { st with reorders = st.reorders + List.length st.ths.(ti).queue }
        end
      in
      let old = mem_find st a in
      let st = { st with mem = IMap.add a (f old) st.mem } in
      let st = match dst with Some d -> set_reg st d (Rv old) | None -> st in
      finish_if_done (advance st rest, [ (a, true) ], false)
    | Kernel.Load _ | Kernel.Store _ | Kernel.Atomic _ ->
      invalid_arg "Mcheck: shared memory is not supported"
    | Kernel.Fence _ ->
      let st = advance st rest in
      let ts = st.ths.(ti) in
      if (not g.strong) && ts.queue <> [] then
        (with_th st ti { ts with phase = Draining }, [], false)
      else finish_if_done (st, [], false)
    | Kernel.If (c, t, e) ->
      let branch = if eval g st ti c <> 0 then t else e in
      finish_if_done (advance st (branch @ rest), [], false)
    | Kernel.While _ -> invalid_arg "Mcheck: loops are not supported"
    | Kernel.Barrier ->
      let st = advance st rest in
      let ts = st.ths.(ti) in
      let st = with_th st ti { ts with phase = AtBarrier } in
      (* Whether this arrival releases the block depends on schedule
         order, so every barrier step is globally synchronising. *)
      (maybe_release g st g.bid_of.(ti), [], true)
    | Kernel.Return -> finish_if_done (advance st [], [], false))

(* A commit may complete a fence drain and thereby finish the thread;
   in a multi-member block that exit is release-relevant. *)
let apply_commit g st ti n =
  let was = st.ths.(ti).phase in
  let st, e = commit_entry g st ti n in
  let ts = st.ths.(ti) in
  if ts.phase = Finished && was <> Finished then
    let multi = block_members g g.bid_of.(ti) > 1 in
    (maybe_release g st g.bid_of.(ti), e, multi)
  else (st, e, false)

(* ------------------------------------------------------------------ *)
(* Transition enumeration                                              *)

type trans = {
  t : step;
  key : int * int;  (* (tid, entry id); Steps use id -1 *)
  next : mstate;
  fp : (int * bool) list;  (* (address, is-write) global footprint *)
  sync : bool;  (* globally dependent (barriers, block exits) *)
}

(* FIFO positions eligible to commit: partition heads (no older pending
   entry in the same partition), as in Memsys.attempt_commits.  On chips
   with a same-partition leak any entry may commit (the checker
   over-approximates the probabilistic quirk). *)
let commit_positions g ts =
  let rec go n seen = function
    | [] -> []
    | e :: tl ->
      let ok = g.leak || not (List.mem e.part seen) in
      if ok then n :: go (n + 1) (e.part :: seen) tl
      else go (n + 1) (e.part :: seen) tl
  in
  go 0 [] ts.queue

let transitions g st =
  let steps = ref [] in
  for ti = g.n - 1 downto 0 do
    let ts = st.ths.(ti) in
    if ts.phase = Ready && ts.work <> [] then
      match (try Some (apply_step g st ti) with Blocked -> None) with
      | Some (next, fp, sync) ->
        steps := { t = Sstep ti; key = (ti, -1); next; fp; sync } :: !steps
      | None -> ()
  done;
  let commits = ref [] in
  for ti = g.n - 1 downto 0 do
    let ts = st.ths.(ti) in
    if ts.queue <> [] then
      List.iter
        (fun n ->
          let next, e, sync = apply_commit g st ti n in
          commits :=
            { t = Scommit (ti, n); key = (ti, e.id); next;
              fp = [ (e.addr, e.ek = Estore) ]; sync }
            :: !commits)
        (List.rev (commit_positions g ts))
  done;
  !steps @ !commits

let conflict fa fb =
  List.exists (fun (a, wa) -> List.exists (fun (b, wb) -> a = b && (wa || wb)) fb) fa

let dependent u v =
  fst u.key = fst v.key || u.sync || v.sync || conflict u.fp v.fp

(* ------------------------------------------------------------------ *)
(* Program setup                                                       *)

let validate p =
  if List.length p.threads <> List.length p.args then
    invalid_arg "Mcheck: threads/args length mismatch";
  List.iter
    (fun k ->
      Kernel.iter_stmts
        (fun s ->
          match s.Kernel.instr with
          | Kernel.While _ -> invalid_arg "Mcheck: loops are not supported"
          | Kernel.Load { space = Kernel.Shared; _ }
          | Kernel.Store { space = Kernel.Shared; _ }
          | Kernel.Atomic { space = Kernel.Shared; _ } ->
            invalid_arg "Mcheck: shared memory is not supported"
          | _ -> ())
        k)
    p.threads

let setup ~chip ~words p =
  validate p;
  let n = List.length p.threads in
  let lay = Sc_ref.layouts ?blocks:p.blocks n in
  let w = chip.Chip.weakness in
  let g =
    { n; lay;
      bid_of = Array.map (fun (_, b, _, _) -> b) lay;
      args = Array.of_list p.args;
      strong = w.Chip.max_delay <= 0.0 && w.Chip.base_delay <= 0.0;
      queue_cap = w.Chip.queue_cap;
      leak = w.Chip.same_patch_leak > 0.0;
      chip; words }
  in
  let mem = List.fold_left (fun m (a, v) -> IMap.add a v m) IMap.empty p.init in
  let ths =
    Array.of_list
      (List.map
         (fun (k : Kernel.t) ->
           { work = k.Kernel.body; regs = SMap.empty; queue = [];
             phase = (if k.Kernel.body = [] then Finished else Ready) })
         p.threads)
  in
  (g, { mem; resolved = IMap.empty; ths; reorders = 0; next_id = 0 })

let project (p : program) st : Sc_ref.state =
  let memory =
    List.sort compare (List.map (fun a -> (a, mem_find st a)) p.watch_mem)
  in
  let registers =
    List.sort compare
      (List.map
         (fun (ti, r) ->
           let v =
             match SMap.find_opt r st.ths.(ti).regs with
             | Some (Rv v) -> v
             | Some (Rp id) -> (
               match IMap.find_opt id st.resolved with
               | Some v -> v
               | None -> assert false (* terminal states have empty queues *))
             | None -> 0
           in
           (ti, r, v))
         p.watch_regs)
  in
  { Sc_ref.memory; registers }

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

let check ~chip ~max_reorderings ?(dpor = true) ?(words = 2048)
    ?(fuel = 10_000_000) p =
  (* The SC oracle runs first: it shares Mcheck's program restrictions
     and deterministically rejects divergent programs. *)
  let sc_states =
    Sc_ref.run ?blocks:p.blocks ~threads:p.threads ~args:p.args ~init:p.init
      ~watch_mem:p.watch_mem ~watch_regs:p.watch_regs ()
  in
  let g, init = setup ~chip ~words p in
  let explored = ref 0
  and sleep_pruned = ref 0
  and bound_pruned = ref 0
  and completed = ref 0 in
  let results : (Sc_ref.state, step list * int) Hashtbl.t = Hashtbl.create 64 in
  let record st trace =
    incr completed;
    let s = project p st in
    if not (Hashtbl.mem results s) then
      Hashtbl.replace results s (List.rev trace, st.reorders)
  in
  let rec explore st trace sleep0 =
    let trs = transitions g st in
    if trs = [] then
      if Array.for_all (fun ts -> ts.phase = Finished) st.ths then
        record st trace
      else invalid_arg "Mcheck: barrier divergence"
    else begin
      let sleep = ref sleep0 in
      List.iter
        (fun tr ->
          if dpor && List.exists (fun u -> u.key = tr.key) !sleep then
            incr sleep_pruned
          else begin
            incr explored;
            if !explored > fuel then
              failwith "Mcheck: fuel exhausted (state space too large)";
            if tr.next.reorders > max_reorderings then incr bound_pruned
            else begin
              let child_sleep = List.filter (fun u -> not (dependent u tr)) !sleep in
              explore tr.next (tr.t :: trace) child_sleep
            end;
            if dpor then sleep := tr :: !sleep
          end)
        trs
    end
  in
  explore init [] [];
  let reachable =
    Hashtbl.fold
      (fun state (schedule, reorders) acc -> { state; schedule; reorders } :: acc)
      results []
    |> List.sort (fun a b -> compare a.state b.state)
  in
  let weak = List.filter (fun w -> not (List.mem w.state sc_states)) reachable in
  { verdict = (if weak = [] then Proved_sc else Weak weak);
    reachable; sc_states;
    stats =
      { explored = !explored; sleep_pruned = !sleep_pruned;
        bound_pruned = !bound_pruned; completed = !completed;
        roots = List.length (transitions g init) } }
