(** Memory stressing strategies (Secs. 3 and 4.2).

    A strategy describes what the extra {e stressing blocks} appended to a
    launch do.  The systematic strategy [Sys] uses the per-chip tuned
    parameters (access sequence and spread); [Rand] and [Cache] are the
    straightforward baselines of Sec. 4.2; [Fixed] pins the stressed
    scratchpad locations and is the raw ingredient of the tuning
    campaigns themselves (patch finding stresses one given location).

    All scratchpad memory is allocated fresh per launch, disjoint from the
    application's allocations, and stressing threads run in their own
    blocks, so the application's possible behaviours are unchanged.

    Each strategy's stressing threads step the tick schedule of a stress
    kernel ({!Gpusim.Sim.schedule}): [Sys], [Fixed] and [Targeted] a
    {!Gpusim.Sim.sequence} over the chosen scratchpad locations, [Rand]
    a {!Gpusim.Sim.random} walk of its scratchpad, and [Cache] a
    {!Gpusim.Sim.sweep} of an L2-sized one.  A schedule takes the same
    ticks, draws and accesses as the kernel
    [while (1) { body }] it stands for, so every execution is the one
    that kernel gave. *)

type tuned = {
  sequence : Access_seq.t;  (** loop body of each stressing thread *)
  spread : int;  (** number of patch-sized regions stressed at once *)
  regions : int;  (** scratchpad size in patch-sized regions (paper M) *)
}

type t =
  | No_stress
  | Sys of tuned
  | Rand of { scratch_words : int }
      (** random load or store to a random scratchpad location *)
  | Cache
      (** walk an L2-sized scratchpad with a load and store per word *)
  | Fixed of {
      sequence : Access_seq.t;
      locations : int list;  (** scratchpad word offsets, one per thread group *)
      scratch_words : int;
    }
  | Targeted of {
      sequence : Access_seq.t;
      addresses : int list;
          (** application addresses (e.g. from {!Gpusim.Race}) whose
              memory partitions should be stressed — the "targeted
              testing around communication locations" the paper proposes
              as future work (Sec. 8) *)
    }

val name : t -> string
(** "no-str", "sys-str", "rand-str", "cache-str", "fixed-str",
    "tgt-str". *)

val default_warmup : int

val intensity_for : n_threads:int -> n_locations:int -> float
(** Contention multiplier for concentrated stress: full parallel pressure
    per location needs a minimum thread count; under-provisioned locations
    lose pressure quadratically (this carves the U-shape of Fig. 4).
    Exposed for tests. *)

val make_stress_litmus :
  t -> Gpusim.Sim.t -> app_grid:int -> app_block:int ->
  Gpusim.Sim.stress_spec option
(** Stressing-block construction for litmus campaigns: the total thread
    count is drawn uniformly between 50% and 100% of the chip's maximum
    concurrent threads (Sec. 3.2), and at least one thread per stressed
    location, rounded up to whole blocks (Sec. 3.4).
    [make_stress_litmus strategy] converts the strategy's access sequence
    once, so apply it once per environment. *)

val make_stress_app :
  t -> Gpusim.Sim.t -> app_grid:int -> app_block:int ->
  Gpusim.Sim.stress_spec option
(** Stressing-block construction for application testing: the number of
    stressing blocks is drawn between 15% and 50% of the application's
    blocks (Sec. 4.2), with a floor of one block.  Like
    {!make_stress_litmus}, apply it once per environment. *)
