(** Executing litmus-test instances on the simulated GPU and counting
    weak behaviours.

    This is the inner loop of all of Sec. 3's tuning campaigns: hundreds
    of thousands of short executions, each on a freshly zeroed device,
    under a caller-supplied testing environment (stressing blocks and/or
    thread randomisation). *)

type outcome = {
  r1 : int;
  r2 : int;
  weak : bool;
  timed_out : bool;
}

val fits :
  chip:Gpusim.Chip.t -> env:Gpusim.Sim.environment -> Test.instance -> bool
(** Whether a run of the instance fits the device (its distance is
    non-negative, and its words and the environment's scratchpad fit);
    a run that does not raises in [Sim.alloc]. *)

val run_once :
  chip:Gpusim.Chip.t ->
  seed:int ->
  ?env:Gpusim.Sim.environment ->
  Test.instance ->
  outcome
(** One execution: allocate the communication pair and the observation
    array, launch the two-block kernel, read back [r1, r2]. *)

val count_weak :
  chip:Gpusim.Chip.t ->
  seed:int ->
  ?env:Gpusim.Sim.environment ->
  runs:int ->
  Test.instance ->
  int
(** Number of weak outcomes over [runs] executions with seeds derived
    from [seed].  Timeouts are not counted as weak. *)

val observed :
  chip:Gpusim.Chip.t ->
  seed:int ->
  ?env:Gpusim.Sim.environment ->
  runs:int ->
  Test.instance ->
  (int * int) list
(** The distinct [(r1, r2)] outcomes over [runs] executions with seeds
    derived from [seed], sorted; timeouts are dropped.  This is the
    campaign side of checker cross-validation: every outcome observed
    here must be reachable for the model checker ([Core.Check]), and
    every observed {e weak} outcome must have a witness schedule. *)
