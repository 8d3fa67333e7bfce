(** Execution counters collected during a kernel launch.

    The counters feed the cost model of Sec. 6 (runtime and energy of
    fencing strategies) and the reordering diagnostics.  Counters labelled
    "app" exclude the activity of stressing (daemon) threads, so that
    runtime/energy results describe the application itself, as measured by
    CUDA events in the paper. *)

type t = {
  mutable ticks : int;  (** scheduler steps for the whole launch *)
  mutable n_alu : int;
  mutable n_load : int;
  mutable n_store : int;
  mutable n_atomic : int;
  mutable n_fence : int;
  mutable fence_drained : int;  (** pending entries drained by fences *)
  mutable fence_stall_ticks : int;  (** ticks threads spent draining *)
  mutable n_reorder : int;
      (** commits that overtook an older pending operation of the same
          thread (a visible weak-memory event) *)
  mutable app_cycles : int;
      (** weighted cycle cost of application (non-daemon) threads *)
  mutable n_bitflip : int;
      (** injected transient soft errors (store-commit bit flips); always
          0 unless {!Memsys.set_soft_errors} armed fault injection *)
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val runtime_cycles : chip:Chip.t -> t -> int
(** Modelled kernel runtime: a fixed per-launch overhead plus the
    application cycle count divided by the chip's notional parallelism. *)

val energy : chip:Chip.t -> t -> float
(** Modelled energy: per-operation energy plus static power drawn over the
    modelled runtime. *)

val to_assoc : t -> (string * int) list
(** Structured key/value export of every counter, in a stable order with
    stable keys ([ticks], [alu], [ld], [st], [atomic], [fence],
    [drained], [stall], [reorder], [app_cycles], [bitflip]).  This is the single
    source for machine-readable output: {!Sim}'s [Launch_end] trace
    events and both telemetry exporters (Chrome trace JSON and JSONL)
    consume it, and {!pp} renders it. *)

val pp : Format.formatter -> t -> unit
(** [k=v] pairs of {!to_assoc}, space-separated. *)
