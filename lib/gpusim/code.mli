(** Compilation of kernels to a flat, directly-executable form.

    The structured {!Kernel} AST is lowered to an array of operations over
    pre-resolved register slots, with expressions staged into closures.
    Compiled code does not depend on the launch arguments: a parameter
    reads its slot of the per-launch array that {!bind} builds, so one
    compilation serves every launch of a kernel.  This keeps the
    per-instruction interpretation cost low enough to run the paper's
    campaigns (hundreds of thousands of simulated executions) in
    seconds. *)

exception Trap of string
(** Raised during execution on kernel faults: out-of-bounds accesses,
    division by zero, or a read of a register holding no value.  The
    simulator turns it into an erroneous launch outcome. *)

exception Unresolved of Memsys.pending
(** Raised when an instruction needs the value of a still-pending load.
    The scheduler parks the thread until the load commits and then
    re-executes the instruction (expression evaluation is effect-free up
    to the raise, so re-execution is sound). *)

(** Per-thread execution context.  A simulator keeps one per thread slot
    and re-arms it at each launch ({!arm}). *)
type tctx = {
  gid : int;  (** physical thread index, keys the memory subsystem *)
  mutable regs : int array;  (** register values *)
  mutable pend : Memsys.pending array;
      (** the load a register waits for, or {!Memsys.no_pending} when
          [regs] holds its value *)
  mutable params : int array;  (** the launch's {!bind}ings *)
  mutable l_tid : int;  (** logical [threadIdx.x] (after randomisation) *)
  mutable l_bid : int;  (** logical [blockIdx.x] *)
  mutable l_bdim : int;
  mutable l_gdim : int;
  mem : Memsys.t;
  mutable shared : int array;  (** the block's shared memory *)
}

type ev = tctx -> int
(** A staged expression evaluator.  Reading a register that holds a
    pending load forces it (dependency ordering). *)

type op =
  | Oassign of int * ev
  | Oload of { site : int; dst : int; space : Kernel.space; addr : ev }
  | Ostore of { site : int; space : Kernel.space; addr : ev; value : ev }
  | Oatomic of {
      site : int;
      dst : int option;
      space : Kernel.space;
      addr : ev;
      (* operand evaluators, run before the atomic takes effect *)
      prepare : tctx -> int -> int;
          (** [prepare ctx] is evaluated to a pure [old -> new] function *)
    }
  | Ofence of Kernel.fence_scope
  | Obarrier
  | Ojump of int
  | Ojz of ev * int  (** jump to target when the condition is zero *)
  | Oreturn

type t = {
  kernel_name : string;
  params : string array;  (** sorted; the order of {!bind}'s array *)
  ops : op array;
  n_regs : int;
  slots : (string * int) list;  (** register-name [->] slot mapping *)
}

val reg_slot : t -> string -> int option
(** The slot allocated to a register name, if the kernel mentions it.
    Lets replay/checker code read back named registers from a context. *)

val compile : Kernel.t -> t
(** Lower a labelled kernel.  Raises [Invalid_argument] if its body
    reads a parameter it does not declare. *)

val bind : t -> (string * int) list -> int array
(** The values of the kernel's parameters, in [params] order, for one
    launch.  Raises [Invalid_argument] if an argument is missing or
    unused. *)

val make_ctx : gid:int -> mem:Memsys.t -> tctx
(** A context with no registers; {!arm} it before running code. *)

val arm :
  tctx -> t -> params:int array ->
  l_tid:int -> l_bid:int -> l_bdim:int -> l_gdim:int ->
  shared:int array -> unit
(** Prepare a context to run [code] from its start: every register
    holds 0, and the arrays grow only past their high-water size. *)

val read_reg : tctx -> int -> int
(** Read a register slot.
    @raise Unresolved if it holds a load that has not completed. *)

val set_reg : tctx -> int -> int -> unit
(** Write a value to a register slot. *)
