type idiom = MP | LB | SB

let idiom_name = function MP -> "MP" | LB -> "LB" | SB -> "SB"
let idioms = [ MP; LB; SB ]

type instance = { idiom : idiom; distance : int }

(* Distance 0 means contiguous communication locations, i.e. one word
   apart, matching the paper's "number of memory words separating the
   communication locations". *)
let offset_y inst = 1 + inst.distance

let layout_words inst = offset_y inst + 1

(* Writer body: the instructions of thread 0 (block 0). *)
let writer inst ~x ~y =
  let open Gpusim.Kbuild in
  match inst.idiom with
  | MP -> [ store x (int 1); store y (int 1) ]
  | LB -> [ load "r1" x; store y (int 1); store (param "out" + int 0) (reg "r1") ]
  | SB ->
    [ store x (int 1); load "r1" y; store (param "out" + int 0) (reg "r1") ]

(* Observer body: the instructions of thread 1 (block 1). *)
let observer inst ~x ~y =
  let open Gpusim.Kbuild in
  match inst.idiom with
  | MP ->
    [ load "r1" y; load "r2" x;
      store (param "out" + int 0) (reg "r1");
      store (param "out" + int 1) (reg "r2") ]
  | LB -> [ load "r2" y; store x (int 1); store (param "out" + int 1) (reg "r2") ]
  | SB ->
    [ store y (int 1); load "r2" x; store (param "out" + int 1) (reg "r2") ]

let build_kernel inst =
  let open Gpusim.Kbuild in
  let x = param "x" in
  let y = param "x" + int (offset_y inst) in
  kernel
    (Printf.sprintf "%s_d%d" (idiom_name inst.idiom) inst.distance)
    ~params:[ "x"; "out" ]
    [ if_ (bid = int 0) (writer inst ~x ~y) (observer inst ~x ~y) ]

(* The kernel AST is a pure function of the instance, yet tuning
   campaigns rebuild it for every one of their millions of launches over
   a handful of distinct instances.  Memoised under a mutex; the AST is
   immutable, so sharing one value across worker domains is safe. *)
let kernel_memo : (idiom * int, Gpusim.Kernel.t) Hashtbl.t = Hashtbl.create 16
let kernel_mu = Mutex.create ()

let kernel inst =
  let key = (inst.idiom, inst.distance) in
  Mutex.lock kernel_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock kernel_mu)
    (fun () ->
      match Hashtbl.find_opt kernel_memo key with
      | Some k -> k
      | None ->
        let k = build_kernel inst in
        Hashtbl.add kernel_memo key k;
        k)

let weak inst ~r1 ~r2 =
  match inst.idiom with
  | MP -> r1 = 1 && r2 = 0
  | LB -> r1 = 1 && r2 = 1
  | SB -> r1 = 0 && r2 = 0

(* Straight-line per-thread kernels for the SC oracle: the register
   observations flow through the same out-array stores as the weak
   machine's kernel. *)
let threads inst ~x =
  let mk name body =
    Gpusim.Kernel.label
      { Gpusim.Kernel.name; params = [ "x"; "out" ]; body }
  in
  let xk = Gpusim.Kbuild.param "x" in
  let yk = Gpusim.Kbuild.(param "x" + int (offset_y inst)) in
  let k0 = mk "t0" (writer inst ~x:xk ~y:yk) in
  let k1 = mk "t1" (observer inst ~x:xk ~y:yk) in
  let args = [ ("x", x); ("out", x + layout_words inst) ] in
  ([ k0; k1 ], [ args; args ])

let sc_outcomes inst =
  let x = 0 in
  let out = x + layout_words inst in
  let threads, args = threads inst ~x in
  let states =
    Gpusim.Sc_ref.run ~threads ~args ~init:[] ~watch_mem:[ out; out + 1 ]
      ~watch_regs:[] ()
  in
  List.map
    (fun (s : Gpusim.Sc_ref.state) ->
      match s.memory with
      | [ (_, r1); (_, r2) ] -> (r1, r2)
      | _ -> assert false)
    states
  |> List.sort_uniq compare
