(** Campaign-facing front end of the bounded model checker
    ({!Gpusim.Mcheck}).

    The stress campaigns ({!Campaign}) sample weak behaviours; this
    module {e decides} them: it builds checker programs for the litmus
    idioms (optionally fully fenced), shards the exploration across
    {!Exec} jobs, validates every witness by bit-identical replay
    through [Sim.run_schedule], renders verdicts as stable ascii/json
    reports, and cross-validates the checker against campaign
    observations — every outcome a campaign observes must be reachable
    for the checker, and every observed weak outcome must have a
    witness schedule.

    Every [check_program] (and everything built on it) bumps the
    [mcheck.*] telemetry counters: [checks], [explored],
    [sleep_pruned], [bound_pruned], [completed], [weak_witnesses]. *)

type case = { instance : Litmus.Test.instance; fenced : bool }

val case_name : case -> string
(** E.g. ["MP d31 unfenced"]. *)

val litmus_program : Litmus.Test.instance -> fenced:bool -> Gpusim.Mcheck.program
(** The checker program of a litmus instance: the straight-line
    per-thread kernels of {!Litmus.Test.threads} at [x = 0], watching
    the two out-array words.  With [~fenced:true] a [Device] fence is
    inserted after every global access site — the configuration the
    checker must prove SC-only. *)

val outcome : Gpusim.Sc_ref.state -> int * int
(** Project a litmus-program final state to its [(r1, r2)] outcome.
    @raise Invalid_argument if the state does not watch two words. *)

val check_program :
  chip:Gpusim.Chip.t ->
  max_reorderings:int ->
  ?jobs:int ->
  ?dpor:bool ->
  ?words:int ->
  ?fuel:int ->
  Gpusim.Mcheck.program ->
  Gpusim.Mcheck.result
(** {!Gpusim.Mcheck.check} with root-level sharding: with [jobs > 1]
    each root-level transition becomes one {!Exec} job
    ([Mcheck.check ~roots:[i]]) and the per-root results are merged in
    root order — bit-identical to the serial result for every job
    count, by the same argument as {!Exec}'s backend guarantee plus the
    checker's root-sharding contract. *)

val replay_witnesses :
  chip:Gpusim.Chip.t ->
  ?words:int ->
  Gpusim.Mcheck.program ->
  Gpusim.Mcheck.witness list ->
  string list
(** Replay each witness schedule through [Sim.run_schedule] on a fresh
    device and compare final state and reorder count.  Returns a
    description per mismatch; [[]] means every witness is confirmed. *)

type case_result = {
  case : case;
  proved : bool;  (** no weak behaviour up to the bound *)
  sc : (int * int) list;  (** SC-reachable outcomes (the oracle) *)
  weak : ((int * int) * Gpusim.Mcheck.witness) list;
      (** non-SC outcomes with witness schedules *)
  replay_failures : string list;  (** [[]]: all reachable states replayed *)
  stats : Gpusim.Mcheck.stats;
}

type run = {
  chip : Gpusim.Chip.t;
  max_reorderings : int;
  cases : case_result list;
}

val check_case :
  chip:Gpusim.Chip.t ->
  max_reorderings:int ->
  ?jobs:int ->
  case ->
  case_result
(** Check one litmus case and replay-validate every reachable state's
    witness (SC and weak alike). *)

val default_distances : Gpusim.Chip.t -> int list
(** [[0; patch_size - 1]]: the largest same-partition distance (weak
    behaviour impossible — the checker proves SC even unfenced) and the
    smallest cross-partition one (weak behaviour appears unfenced). *)

val fits : int -> bool
(** Whether a litmus program at this distance (0 to 2044) fits. *)

val run_litmus :
  chip:Gpusim.Chip.t ->
  max_reorderings:int ->
  ?jobs:int ->
  ?distances:int list ->
  unit ->
  run
(** Check every idiom at every distance (default
    {!default_distances}), fenced and unfenced.  Raises
    [Invalid_argument] on a negative [max_reorderings] or a distance
    that does not {!fits}. *)

val render_ascii : run -> string
val render_json : run -> Json.t
(** Both renderings are functions of the [run] value only — no
    wall-clock, no job count — so they are byte-stable across machines
    and [?jobs] values (golden files and the determinism tests rely on
    this). *)

(** {1 Cross-validation} *)

type cross = {
  observed : (int * int) list;
      (** distinct campaign outcomes ({!Litmus.Runner.observed}) *)
  reachable : (int * int) list;  (** distinct checker outcomes *)
  unexplained : (int * int) list;
      (** observed but not reachable — must be [[]]; anything here is a
          checker unsoundness or a semantics divergence *)
  weak_observed : (int * int) list;
  unwitnessed : (int * int) list;
      (** weak observed without a witness schedule — must be [[]] *)
}

val cross_validate :
  chip:Gpusim.Chip.t ->
  seed:int ->
  runs:int ->
  ?env:Gpusim.Sim.environment ->
  ?jobs:int ->
  max_reorderings:int ->
  Litmus.Test.instance ->
  cross
(** Run the (unfenced) checker and a [runs]-execution campaign on the
    same instance — typically under a stressing environment so the
    campaign actually exhibits weak outcomes — and compare. *)
