(* An independent interpreter: deliberately shares no execution code with
   Code/Sim so that it can serve as a cross-validation oracle. *)

type state = {
  memory : (int * int) list;
  registers : (int * string * int) list;
}

(* Launch geometry from a block-membership array: thread [i] belongs to
   block [blocks.(i)]; within a block, threads are numbered in order of
   appearance.  The default ([blocks.(i) = i]) gives every thread its own
   block, which reproduces the historical tid=0/bid=i/bdim=1/gdim=n
   single-thread-per-block view. *)
let layouts ?blocks n =
  let blocks =
    match blocks with
    | Some b ->
      if Array.length b <> n then
        invalid_arg "Sc_ref: blocks array length must match thread count";
      b
    | None -> Array.init n (fun i -> i)
  in
  (* Distinct block ids in order of first appearance become bids 0.. *)
  let order = ref [] in
  Array.iter
    (fun b -> if not (List.mem b !order) then order := b :: !order)
    blocks;
  let distinct = List.rev !order in
  let gdim = List.length distinct in
  let bid_of b =
    let rec go i = function
      | [] -> assert false
      | b' :: tl -> if b' = b then i else go (i + 1) tl
    in
    go 0 distinct
  in
  let size_of b =
    Array.fold_left (fun acc b' -> if b' = b then acc + 1 else acc) 0 blocks
  in
  let seen = Hashtbl.create 8 in
  Array.mapi
    (fun i b ->
      let tid = match Hashtbl.find_opt seen b with Some k -> k | None -> 0 in
      Hashtbl.replace seen b (tid + 1);
      ignore i;
      (tid, bid_of b, size_of b, gdim))
    blocks

type tstate = {
  thread : int;
  block : int;  (* canonical bid *)
  l_tid : int;
  l_bdim : int;
  l_gdim : int;
  mutable work : Kernel.stmt list;  (* continuation *)
  mutable waiting : bool;  (* parked at a block barrier *)
  regs : (string, int) Hashtbl.t;
  args : (string * int) list;
}

let rec eval ts (mem : (int, int) Hashtbl.t) (e : Kernel.exp) =
  match e with
  | Kernel.Int n -> n
  | Kernel.Reg r -> ( match Hashtbl.find_opt ts.regs r with Some v -> v | None -> 0)
  | Kernel.Param p -> (
    match List.assoc_opt p ts.args with
    | Some v -> v
    | None -> invalid_arg ("Sc_ref: missing argument " ^ p))
  | Kernel.Special Kernel.Tid -> ts.l_tid
  | Kernel.Special Kernel.Bid -> ts.block
  | Kernel.Special Kernel.Bdim -> ts.l_bdim
  | Kernel.Special Kernel.Gdim -> ts.l_gdim
  | Kernel.Binop (op, a, b) ->
    let va = eval ts mem a and vb = eval ts mem b in
    let bool_ c = if c then 1 else 0 in
    (match op with
    | Kernel.Add -> va + vb
    | Kernel.Sub -> va - vb
    | Kernel.Mul -> va * vb
    | Kernel.Div ->
      if vb = 0 then invalid_arg "Sc_ref: division by zero" else va / vb
    | Kernel.Rem ->
      if vb = 0 then invalid_arg "Sc_ref: remainder by zero" else va mod vb
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
  | Kernel.Unop (Kernel.Neg, a) -> -eval ts mem a
  | Kernel.Unop (Kernel.Lnot, a) -> if eval ts mem a = 0 then 1 else 0
  | Kernel.Rand _ -> invalid_arg "Sc_ref: random expressions are not supported"

let mem_get mem a = match Hashtbl.find_opt mem a with Some v -> v | None -> 0

(* A thread is finished when it has no continuation and is not parked at a
   barrier (a trailing barrier keeps the thread alive until release). *)
let finished ts = ts.work = [] && not ts.waiting

(* Release the barrier of [block] if every live member is waiting at it.
   CUDA leaves a barrier undefined unless every thread of the block
   executes it, so a release with exited members is rejected outright —
   the oracle refuses programs whose barrier behaviour is undefined. *)
let maybe_release tstates block =
  let members =
    Array.to_list tstates |> List.filter (fun ts -> ts.block = block)
  in
  let live = List.filter (fun ts -> not (finished ts)) members in
  let waiting = List.filter (fun ts -> ts.waiting) members in
  if live <> [] && List.length waiting = List.length live then begin
    if List.length live < List.length members then
      invalid_arg "Sc_ref: barrier divergence";
    List.iter (fun ts -> ts.waiting <- false) live
  end

(* Execute one statement of a thread; returns false if the thread cannot
   step (already finished). *)
let step tstates ts mem =
  match ts.work with
  | [] -> false
  | s :: rest ->
    (match s.Kernel.instr with
    | Kernel.Assign (r, e) ->
      Hashtbl.replace ts.regs r (eval ts mem e);
      ts.work <- rest
    | Kernel.Load { dst; space = Kernel.Global; addr } ->
      Hashtbl.replace ts.regs dst (mem_get mem (eval ts mem addr));
      ts.work <- rest
    | Kernel.Store { space = Kernel.Global; addr; value } ->
      Hashtbl.replace mem (eval ts mem addr) (eval ts mem value);
      ts.work <- rest
    | Kernel.Atomic { dst; space = Kernel.Global; addr; op } ->
      let a = eval ts mem addr in
      let old = mem_get mem a in
      let nv =
        match op with
        | Kernel.Acas (e, d) -> if old = eval ts mem e then eval ts mem d else old
        | Kernel.Aexch v -> eval ts mem v
        | Kernel.Aadd v -> old + eval ts mem v
        | Kernel.Amin v -> Int.min old (eval ts mem v)
        | Kernel.Amax v -> Int.max old (eval ts mem v)
      in
      Hashtbl.replace mem a nv;
      (match dst with Some d -> Hashtbl.replace ts.regs d old | None -> ());
      ts.work <- rest
    | Kernel.Load _ | Kernel.Store _ | Kernel.Atomic _ ->
      invalid_arg "Sc_ref: shared memory is not supported"
    | Kernel.Fence _ ->
      (* Under SC a fence is a no-op. *)
      ts.work <- rest
    | Kernel.If (c, t, e) ->
      ts.work <- (if eval ts mem c <> 0 then t @ rest else e @ rest)
    | Kernel.While _ -> invalid_arg "Sc_ref: loops are not supported"
    | Kernel.Barrier ->
      ts.work <- rest;
      ts.waiting <- true;
      maybe_release tstates ts.block
    | Kernel.Return -> ts.work <- []);
    (* A thread that just finished may force a barrier-divergence check on
       its block (a release triggered by exit is undefined behaviour). *)
    if finished ts then maybe_release tstates ts.block;
    true

let snapshot_ts ts = (ts.thread, ts.work, ts.waiting, Hashtbl.copy ts.regs)
let restore_ts ts (_, work, waiting, regs) =
  ts.work <- work;
  ts.waiting <- waiting;
  Hashtbl.reset ts.regs;
  Hashtbl.iter (Hashtbl.add ts.regs) regs

let run ?blocks ~threads ~args ~init ~watch_mem ~watch_regs () =
  if List.length threads <> List.length args then
    invalid_arg "Sc_ref.run: threads/args length mismatch";
  let n = List.length threads in
  let lay = layouts ?blocks n in
  let mem = Hashtbl.create 16 in
  List.iter (fun (a, v) -> Hashtbl.replace mem a v) init;
  let tstates =
    List.mapi
      (fun i (k : Kernel.t) ->
        let l_tid, bid, l_bdim, l_gdim = lay.(i) in
        { thread = i; block = bid; l_tid; l_bdim; l_gdim;
          work = k.Kernel.body; waiting = false; regs = Hashtbl.create 8;
          args = List.nth args i })
      threads
    |> Array.of_list
  in
  let results = Hashtbl.create 64 in
  let rec explore () =
    let progressed = ref false in
    for i = 0 to n - 1 do
      let ts = tstates.(i) in
      if ts.work <> [] && not ts.waiting then begin
        progressed := true;
        let saved = Array.map snapshot_ts tstates in
        let saved_mem = Hashtbl.copy mem in
        ignore (step tstates ts mem);
        explore ();
        Array.iteri (fun j s -> restore_ts tstates.(j) s) saved;
        Hashtbl.reset mem;
        Hashtbl.iter (Hashtbl.add mem) saved_mem
      end
    done;
    if not !progressed then
      if Array.exists (fun ts -> not (finished ts)) tstates then
        (* Every unfinished thread is parked at a barrier that can never
           fill: a barrier deadlock, rejected like divergence. *)
        invalid_arg "Sc_ref: barrier divergence"
      else begin
        let memory =
          List.sort compare (List.map (fun a -> (a, mem_get mem a)) watch_mem)
        in
        let registers =
          List.sort compare
            (List.map
               (fun (t, r) ->
                 let v =
                   match Hashtbl.find_opt tstates.(t).regs r with
                   | Some v -> v
                   | None -> 0
                 in
                 (t, r, v))
               watch_regs)
        in
        Hashtbl.replace results { memory; registers } ()
      end
  in
  explore ();
  Hashtbl.fold (fun s () acc -> s :: acc) results []
  |> List.sort compare

let allows ?blocks ~threads ~args ~init target =
  let watch_mem = List.map fst target.memory in
  let watch_regs = List.map (fun (t, r, _) -> (t, r)) target.registers in
  let reachable = run ?blocks ~threads ~args ~init ~watch_mem ~watch_regs () in
  List.exists
    (fun s ->
      List.sort compare s.memory = List.sort compare target.memory
      && List.sort compare s.registers = List.sort compare target.registers)
    reachable
