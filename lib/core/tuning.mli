(** The complete per-chip tuning pipeline of Sec. 3: patch finding, then
    access-sequence finding, then spread finding, producing the
    systematic-stress parameters of Table 2. *)

type result = {
  chip : string;
  patch : Patch_finder.result;
  sequences : Seq_finder.result;
  spreads : Spread_finder.result;
  tuned : Stress.tuned;
  elapsed_s : float;  (** wall-clock tuning time (the paper reports ~1-4k
                          minutes per physical chip; ours is simulated) *)
}

val run :
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  chip:Gpusim.Chip.t ->
  seed:int ->
  budget:Budget.t ->
  unit ->
  result
(** The three stages run in sequence (they are data-dependent); each
    stage's grid executes through {!Exec} with the given [backend].
    Results are bit-identical across backends at the same seed.
    [journal] journals the stages under phases ["patch"], ["seq"] and
    ["spread"] (callers tuning several chips in one ledger prefix the
    journal with {!Runlog.extend}).  In {!Runlog.deterministic_mode}
    [elapsed_s] is 0 so ledger records stay reproducible. *)

val shipped : chip:Gpusim.Chip.t -> Stress.tuned
(** The tuned parameters published in Table 2 of the paper, shipped as
    defaults so that users can apply sys-str without re-running the
    multi-hour tuning campaign.  (Patch size per architecture, the
    paper's winning sequence per chip, spread 2.)  A chip without
    Table 2 parameters falls back to the untuned ["ld st"] sequence and
    logs a [Logs] warning.  The CLI refuses unknown chip names, so the
    only chip that reaches the fallback there is [sc], the SC reference
    chip, on which stress has no effect. *)

(** {1 Ledger codecs} *)

val result : result Codec.t
val result_to_json : result -> Json.t
val result_of_json : Json.t -> (result, string) Stdlib.result
