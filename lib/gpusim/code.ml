open Kernel

exception Trap of string

exception Unresolved of Memsys.pending

type tctx = {
  gid : int;
  mutable regs : int array;
  mutable pend : Memsys.pending array;
  mutable params : int array;
  mutable l_tid : int;
  mutable l_bid : int;
  mutable l_bdim : int;
  mutable l_gdim : int;
  mem : Memsys.t;
  mutable shared : int array;
}

type ev = tctx -> int

type op =
  | Oassign of int * ev
  | Oload of { site : int; dst : int; space : Kernel.space; addr : ev }
  | Ostore of { site : int; space : Kernel.space; addr : ev; value : ev }
  | Oatomic of {
      site : int;
      dst : int option;
      space : Kernel.space;
      addr : ev;
      prepare : tctx -> int -> int;
    }
  | Ofence of Kernel.fence_scope
  | Obarrier
  | Ojump of int
  | Ojz of ev * int
  | Oreturn

type t = {
  kernel_name : string;
  params : string array;
  ops : op array;
  n_regs : int;
  slots : (string * int) list;
}

let reg_slot code r = List.assoc_opt r code.slots

(* A register holds a value unless its [pend] slot holds a load, so a
   value write touches [pend] only to clear a load: writing the sentinel
   over itself would still pay the write barrier. *)
let[@inline] set_reg ctx i v =
  ctx.regs.(i) <- v;
  if ctx.pend.(i) != Memsys.no_pending then ctx.pend.(i) <- Memsys.no_pending

let read_pending ctx i p =
  if Memsys.resolved p then begin
    let v = Memsys.force ctx.mem ~tid:ctx.gid p in
    set_reg ctx i v;
    v
  end
  else
    (* A dependent instruction cannot proceed until the load completes;
       the scheduler parks the thread, and the load commits through the
       normal contention-delayed machinery.  This stall is what lets
       program-order-later independent stores retire first (the LB weak
       behaviour). *)
    raise (Unresolved p)

(* Read a register slot; raises [Unresolved] while it holds a load that
   has not completed. *)
let[@inline] read_reg ctx i =
  let p = ctx.pend.(i) in
  if p == Memsys.no_pending then ctx.regs.(i) else read_pending ctx i p

(* Register slot allocation: every register name mentioned anywhere in the
   kernel gets one slot. *)
let collect_regs k =
  let tbl = Hashtbl.create 16 in
  let slot r =
    if not (Hashtbl.mem tbl r) then Hashtbl.add tbl r (Hashtbl.length tbl)
  in
  let rec exp = function
    | Int _ | Special _ | Param _ -> ()
    | Reg r -> slot r
    | Binop (_, a, b) -> exp a; exp b
    | Unop (_, a) -> exp a
    | Rand a -> exp a
  in
  let atomic = function
    | Acas (a, b) -> exp a; exp b
    | Aexch a | Aadd a | Amin a | Amax a -> exp a
  in
  Kernel.iter_stmts
    (fun s ->
      match s.instr with
      | Assign (r, e) -> slot r; exp e
      | Load { dst; addr; _ } -> slot dst; exp addr
      | Store { addr; value; _ } -> exp addr; exp value
      | Atomic { dst; addr; op; _ } ->
        Option.iter slot dst;
        exp addr;
        atomic op
      | If (c, _, _) | While (c, _) -> exp c
      | Fence _ | Barrier | Return -> ())
    k;
  tbl

let bool_of_int n = n <> 0
let int_of_bool b = if b then 1 else 0

let compile_exp ~name slots params e =
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None -> invalid_arg ("Code.compile: unknown register " ^ r)
  in
  let rec go = function
    | Int n -> fun _ -> n
    | Reg r ->
      let i = slot r in
      fun ctx -> read_reg ctx i
    | Special Tid -> fun ctx -> ctx.l_tid
    | Special Bid -> fun ctx -> ctx.l_bid
    | Special Bdim -> fun ctx -> ctx.l_bdim
    | Special Gdim -> fun ctx -> ctx.l_gdim
    | Param p -> (
      match Array.find_index (String.equal p) params with
      | Some j -> fun ctx -> ctx.params.(j)
      | None ->
        invalid_arg ("Code.compile " ^ name ^ ": undeclared parameter %" ^ p))
    | Binop (op, a, b) ->
      let fa = go a and fb = go b in
      (match op with
      | Add -> fun c -> fa c + fb c
      | Sub -> fun c -> fa c - fb c
      | Mul -> fun c -> fa c * fb c
      | Div ->
        fun c ->
          let d = fb c in
          if d = 0 then raise (Trap "division by zero") else fa c / d
      | Rem ->
        fun c ->
          let d = fb c in
          if d = 0 then raise (Trap "remainder by zero") else fa c mod d
      | Band -> fun c -> fa c land fb c
      | Bor -> fun c -> fa c lor fb c
      | Bxor -> fun c -> fa c lxor fb c
      | Shl -> fun c -> fa c lsl fb c
      | Shr -> fun c -> fa c asr fb c
      | Eq -> fun c -> int_of_bool (fa c = fb c)
      | Ne -> fun c -> int_of_bool (fa c <> fb c)
      | Lt -> fun c -> int_of_bool (fa c < fb c)
      | Le -> fun c -> int_of_bool (fa c <= fb c)
      | Gt -> fun c -> int_of_bool (fa c > fb c)
      | Ge -> fun c -> int_of_bool (fa c >= fb c)
      | Min -> fun c -> Int.min (fa c) (fb c)
      | Max -> fun c -> Int.max (fa c) (fb c))
    | Unop (Neg, a) ->
      let fa = go a in
      fun c -> -fa c
    | Unop (Lnot, a) ->
      let fa = go a in
      fun c -> int_of_bool (not (bool_of_int (fa c)))
    | Rand a ->
      let fa = go a in
      fun c -> Memsys.rand c.mem (fa c)
  in
  go e

let compile (k : Kernel.t) =
  let params = Array.of_list (List.sort_uniq compare k.params) in
  let slots = collect_regs k in
  let ce = compile_exp ~name:k.name slots params in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None -> assert false (* collect_regs visited every register *)
  in
  let buf = ref [] in
  let n = ref 0 in
  let emit op =
    buf := op :: !buf;
    incr n
  in
  (* Emit with backpatching: jump targets are discovered after emitting
     the jump, so record the cell index and patch at the end. *)
  let patches = ref [] in
  let emit_jump_placeholder mk =
    let at = !n in
    emit (Ojump (-1));
    patches := (at, mk) :: !patches
  in
  let rec stmt s =
    match s.instr with
    | Assign (r, e) -> emit (Oassign (slot r, ce e))
    | Load { dst; space; addr } ->
      emit (Oload { site = s.sid; dst = slot dst; space; addr = ce addr })
    | Store { space; addr; value } ->
      emit (Ostore { site = s.sid; space; addr = ce addr; value = ce value })
    | Atomic { dst; space; addr; op } ->
      let prepare =
        match op with
        | Acas (expected, desired) ->
          let fe = ce expected and fd = ce desired in
          fun ctx ->
            let e = fe ctx and d = fd ctx in
            fun old -> if old = e then d else old
        | Aexch v ->
          let fv = ce v in
          fun ctx ->
            let v = fv ctx in
            fun _ -> v
        | Aadd v ->
          let fv = ce v in
          fun ctx ->
            let v = fv ctx in
            fun old -> old + v
        | Amin v ->
          let fv = ce v in
          fun ctx ->
            let v = fv ctx in
            fun old -> Int.min old v
        | Amax v ->
          let fv = ce v in
          fun ctx ->
            let v = fv ctx in
            fun old -> Int.max old v
      in
      emit
        (Oatomic
           { site = s.sid; dst = Option.map slot dst; space; addr = ce addr;
             prepare })
    | Fence scope -> emit (Ofence scope)
    | Barrier -> emit Obarrier
    | Return -> emit Oreturn
    | If (c, t, []) ->
      let fc = ce c in
      let jz_at = !n in
      emit (Ojump (-1));
      block t;
      let after = !n in
      patches := (jz_at, fun () -> Ojz (fc, after)) :: !patches
    | If (c, t, e) ->
      let fc = ce c in
      let jz_at = !n in
      emit (Ojump (-1));
      block t;
      let jend_at = !n in
      emit (Ojump (-1));
      let else_start = !n in
      block e;
      let after = !n in
      patches := (jz_at, fun () -> Ojz (fc, else_start)) :: !patches;
      patches := (jend_at, fun () -> Ojump after) :: !patches
    | While (c, b) ->
      let fc = ce c in
      let head = !n in
      emit (Ojump (-1));
      block b;
      emit_jump_placeholder (fun () -> Ojump head);
      let after = !n in
      patches := (head, fun () -> Ojz (fc, after)) :: !patches
  and block b = List.iter stmt b in
  block k.body;
  emit Oreturn;
  let ops = Array.of_list (List.rev !buf) in
  List.iter (fun (at, mk) -> ops.(at) <- mk ()) !patches;
  { kernel_name = k.name; params; ops; n_regs = Hashtbl.length slots;
    slots = Hashtbl.fold (fun r i acc -> (r, i) :: acc) slots [] }

let rec arg_value p = function
  | [] -> raise_notrace Not_found
  | (q, v) :: tl -> if String.equal p q then v else arg_value p tl

(* A parameter list and an argument list of the same length whose every
   parameter is found name the same set; anything else takes the exact
   check, which names both sets (and passes when [args] repeats a name). *)
let bind code args =
  let values () = Array.map (fun p -> arg_value p args) code.params in
  try
    if List.compare_length_with args (Array.length code.params) <> 0 then
      raise_notrace Not_found;
    values ()
  with Not_found ->
    let params = Array.to_list code.params in
    let given = List.sort_uniq compare (List.map fst args) in
    if params <> given then
      invalid_arg
        (Fmt.str "Code.compile %s: parameters (%a) do not match arguments (%a)"
           code.kernel_name
           Fmt.(list ~sep:comma string)
           params
           Fmt.(list ~sep:comma string)
           given);
    values ()

let make_ctx ~gid ~mem =
  { gid; regs = [||]; pend = [||]; params = [||]; l_tid = 0; l_bid = 0;
    l_bdim = 0; l_gdim = 0; mem; shared = [||] }

(* Re-arming stores no pointer into the long-lived context unless it
   must grow or change blocks: such a store pays the write barrier, on
   every thread of every launch. *)
let arm ctx code ~params ~l_tid ~l_bid ~l_bdim ~l_gdim ~shared =
  let n = code.n_regs in
  if Array.length ctx.regs < n then begin
    ctx.regs <- Array.make n 0;
    ctx.pend <- Array.make n Memsys.no_pending
  end;
  for i = 0 to n - 1 do
    set_reg ctx i 0
  done;
  let np = Array.length params in
  if Array.length ctx.params < np then ctx.params <- Array.make np 0;
  for j = 0 to np - 1 do
    ctx.params.(j) <- params.(j)
  done;
  ctx.l_tid <- l_tid;
  ctx.l_bid <- l_bid;
  ctx.l_bdim <- l_bdim;
  ctx.l_gdim <- l_gdim;
  if ctx.shared != shared then ctx.shared <- shared
