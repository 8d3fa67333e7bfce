(** The cost of fences (Sec. 6, Fig. 5).

    Applications are benchmarked natively (no testing environment) under
    three fencing strategies: no fences, the empirically inserted fences,
    and a conservative fence after every global access.  Runtime is the
    simulator's modelled cycle count per execution (the analogue of CUDA
    events); energy comes from the per-chip cost model (the analogue of
    NVML sampling, and like the paper's numbers it is an estimate).
    Runs that fail the post-condition are discarded, as in the paper. *)

type measurement = {
  runtime : float;  (** mean modelled cycles per execution *)
  energy : float;  (** mean modelled energy per execution *)
  discarded : int;  (** erroneous runs excluded from the mean *)
}

val measure :
  chip:Gpusim.Chip.t ->
  app:Apps.App.t ->
  fencing:Apps.App.fencing ->
  runs:int ->
  seed:int ->
  measurement

type point = {
  chip : string;
  app : string;
  nvml : bool;  (** chip supports power queries (energy column valid) *)
  no_fences : measurement;
  emp : measurement;
  cons : measurement;
  emp_count : int;  (** number of empirically inserted fences *)
}

val run :
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  chips:Gpusim.Chip.t list ->
  apps:Apps.App.t list ->
  emp_for:(Gpusim.Chip.t -> Apps.App.t -> (string * int) list) ->
  runs:int ->
  seed:int ->
  unit ->
  point list
(** One {!Exec} job per (chip, app) point; results are bit-identical
    across executor backends at the same seed.  [emp_for] runs inside
    the job, so keep it serial when [backend] is parallel.  [journal]
    journals each point under phase ["cost"]; on resume, cached points
    skip their (expensive, nested-hardening) [emp_for] entirely. *)

(** {1 Ledger codecs} *)

val point_codec : point Runlog.codec
val points : point list Codec.t

val overhead_pct : base:float -> float -> float
(** [(v - base) / base * 100]. *)

type summary = {
  median_emp_runtime_pct : float;
  median_cons_runtime_pct : float;
  median_emp_energy_pct : float;  (** over NVML-capable chips only *)
  median_cons_energy_pct : float;
  max_emp_runtime_pct : float;
  max_cons_runtime_pct : float;
}

val summarise : point list -> summary
