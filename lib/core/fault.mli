(** Deterministic fault plans for chaos-testing the execution engine.

    A plan is a pure function of [(fault seed, job index, attempt)]: the
    same plan injects the same faults at the same places on every run,
    every backend and every [--jobs] value, which is what makes chaos
    campaigns reproducible and their invariants checkable (the
    [gpuwmm chaos] driver predicts the outcome of every job before
    running it, then verifies the prediction).

    Two layers of faults exist:

    - {e executor-level} faults, drawn from {!at} and injected by the
      supervision layer in [Exec] around a job attempt: a crash
      ({!Raise}), a hang that only its attempt's timeout cancels
      ({!Hang}), a silently wrong result ({!Corrupt}, the job computes
      with a perturbed seed), and a simulated ledger write failure
      ({!Ledger_fail}, the result is computed but the attempt dies
      before it is recorded);
    - {e simulator-level} transient soft errors (gpuFI-style bit flips
      on store commits), armed via [Gpusim.Sim.set_soft_error_default]
      and carried here only as the plan's {!field-soft_error_rate}. *)

type kind = Raise | Hang | Corrupt | Ledger_fail

exception Injected of string
(** The exception raised by injected {!Raise}, {!Hang} (when no timeout
    is armed) and {!Ledger_fail} faults.  Registered with a stable
    printer so quarantine reasons are deterministic. *)

type plan = {
  seed : int;  (** the fault seed; independent of the campaign seed *)
  rate : float;  (** per-attempt fault probability, in [\[0, 1\]] *)
  kinds : kind list;  (** the fault kinds to draw from (uniformly) *)
  faulty_attempts : int;
      (** attempts [0 .. faulty_attempts - 1] of a job may fault; later
          retries always run clean.  [1] means one retry always heals a
          job; a value above the retry budget creates poison jobs. *)
  soft_error_rate : float;
      (** per-store bit-flip probability for the simulator layer (not
          consulted by {!at}; the chaos driver arms it globally) *)
}

val plan :
  ?rate:float ->
  ?kinds:kind list ->
  ?faulty_attempts:int ->
  ?soft_error_rate:float ->
  seed:int ->
  unit ->
  plan
(** Defaults: [rate = 0.2], [kinds = [Raise]], [faulty_attempts = 1],
    [soft_error_rate = 0.0].  Raises [Invalid_argument] on an empty
    [kinds] list or rates outside [\[0, 1\]], [nan] included. *)

val at : plan -> index:int -> attempt:int -> kind option
(** The fault injected into attempt [attempt] of job [index] — a pure
    function: no state, no wall clock, only the plan's seed. *)

type prediction = {
  attempts : int;  (** attempts consumed, including the successful one *)
  outcome : [ `Clean | `Corrupted | `Quarantined ];
}

val predict : plan -> retries:int -> index:int -> prediction
(** Replays {!at} over the attempt budget ([retries + 1] attempts):
    [`Clean] if some attempt runs fault-free, [`Corrupted] if the first
    surviving attempt carries a {!Corrupt} fault (the job "succeeds"
    with a wrong result), [`Quarantined] if every attempt faults
    fatally. *)

val kind_name : kind -> string
val parse_kinds : string -> (kind list, string) result
(** Comma-separated kind names ([raise,hang,corrupt,ledger]). *)

val pp : Format.formatter -> plan -> unit
