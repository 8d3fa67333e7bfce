(** Memory stressing strategies (Secs. 3 and 4.2).

    A strategy describes what the extra {e stressing blocks} appended to a
    launch do.  The systematic strategy [Sys] uses the per-chip tuned
    parameters (access sequence and spread); [Rand] and [Cache] are the
    straightforward baselines of Sec. 4.2; [Fixed] pins the stressed
    scratchpad locations and is the raw ingredient of the tuning
    campaigns themselves (patch finding stresses one given location).

    All scratchpad memory is allocated fresh per launch, disjoint from the
    application's allocations, and stressing threads run in their own
    blocks, so the application's possible behaviours are unchanged. *)

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

val kernel : sequence:Access_seq.t -> n_locations:int -> Gpusim.Kernel.t
(** The stressing kernel: each thread picks one of [n_locations] location
    parameters ([l0], [l1], ...) by global thread id and applies the
    sequence to it in an infinite loop.  Exposed for inspection/tests. *)

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
    concurrent threads (Sec. 3.2).  [make_stress_litmus strategy] looks
    the stress kernel up at its first launch and keeps it, so apply it
    once per environment. *)

val make_stress_app :
  t -> Gpusim.Sim.t -> app_grid:int -> app_block:int ->
  Gpusim.Sim.stress_spec option
(** Stressing-block construction for application testing: the number of
    stressing blocks is drawn between 15% and 50% of the application's
    blocks (Sec. 4.2), with a floor of one block.  Like
    {!make_stress_litmus}, apply it once per environment. *)
