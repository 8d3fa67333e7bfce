(** Empirical fence insertion (Sec. 5, Alg. 1).

    Starting from a fence after every global memory access, binary and
    linear reduction repeatedly remove fences, re-testing the application
    under an aggressive environment after each removal.  The process
    converges to a set of fences that is {e empirically stable} (no errors
    over a long test) and minimal in the sense that every fence in it was
    individually observed to matter. *)

type config = {
  environment : Environment.t;  (** the paper uses sys-str+ *)
  initial_iterations : int;  (** Alg. 1's I; the paper uses 32 *)
  stability_runs : int;
      (** executions for the EmpiricallyStable check (the paper's one
          hour of testing); {!insert} raises [Invalid_argument] unless
          it is positive *)
  max_rounds : int;
      (** restarts with doubled I before giving up (the paper's 24 h
          timeout) *)
}

val default_config : chip:Gpusim.Chip.t -> config
(** sys-str+ with the chip's shipped tuned parameters, I = 32,
    200 stability runs, 4 rounds. *)

type result = {
  app : string;
  chip : string;
  initial : int;  (** size of the initial (conservative) fence set *)
  fences : (string * int) list;
      (** the surviving fence sites: (kernel, access site id) *)
  converged : bool;  (** false if [max_rounds] was exhausted (timeout) *)
  rounds : int;
  checks : int;  (** CheckApplication invocations performed *)
  elapsed_s : float;
}

val check_application :
  ?backend:Exec.backend ->
  chip:Gpusim.Chip.t ->
  env:Environment.t ->
  app:Apps.App.t ->
  fences:(string * int) list ->
  iterations:int ->
  seed:int ->
  unit ->
  bool
(** Alg. 1's CheckApplication: [true] when no error is observed in
    [iterations] executions of the application with the given fences.
    The iterations are independent {!Exec} jobs with pre-derived seeds,
    so the verdict is identical across executor backends (both
    short-circuit on the first failure). *)

val insert :
  chip:Gpusim.Chip.t ->
  ?config:config ->
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  app:Apps.App.t ->
  seed:int ->
  unit ->
  result
(** Run empirical fence insertion for one application on one chip.  The
    application should be fence-free (Sec. 5.2 uses the seven fence-free
    case studies).

    The reduction is adaptive, so the journaled unit is the {e check}:
    the n-th CheckApplication verdict is a pure function of
    (seed, n, fence set) and is memoised under phase ["checks"] via
    {!Runlog.memo}.  Resuming replays the recorded verdicts in order,
    and the reduction deterministically retraces its path to the first
    unrecorded check.  In {!Runlog.deterministic_mode} [elapsed_s]
    is 0. *)

(** {1 Ledger codecs} *)

val results : result list Codec.t
