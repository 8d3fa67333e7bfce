(** Formatting of the paper's tables and figures from campaign data.

    Tables are rendered as aligned ASCII; figures as ASCII bar/line/scatter
    plots, with CSV export for external plotting. *)

val table1 : Format.formatter -> unit
(** The seven studied GPUs (Table 1). *)

val table2 :
  Format.formatter -> (Tuning.result * float) list -> unit
(** Tuned stressing parameters per chip (Table 2); the float is the
    tuning time in minutes. *)

val table3 : Format.formatter -> Seq_finder.result -> unit
(** Top and bottom access sequences per litmus test (Table 3). *)

val table4 : Format.formatter -> unit
(** The ten application case studies (Table 4). *)

val table5 : Format.formatter -> Campaign.row list -> unit
(** Effectiveness summary, a/b per chip and environment (Table 5). *)

val table6 : Format.formatter -> Harden.result list -> unit
(** Empirical fence insertion results (Table 6), grouped by application
    with per-chip agreement against the first (reference) chip. *)

val figure3 :
  Format.formatter -> chip:string -> Patch_finder.result -> unit
(** Patch-finding bar plots: weak behaviours per stressed location, one
    row block per (test, distance) (Fig. 3). *)

val figure4 :
  Format.formatter -> chip:string -> Spread_finder.result -> unit
(** Spread-finding curves: score per spread and litmus test (Fig. 4). *)

val figure5 : Format.formatter -> Cost.point list -> unit
(** Fence-cost scatter data and medians (Fig. 5). *)

val cost_csv : Cost.point list -> string

(** {1 Ledger-backed rendering}

    [gpuwmm report --from LEDGER] rebuilds tables and figures purely
    from a run ledger; every output is stamped with the ledger's header
    provenance first. *)

val provenance : Format.formatter -> path:string -> Runlog.header -> unit
(** ['#']-prefixed provenance stamp (valid as CSV comment lines):
    ledger path, schema, campaign kind, seed, jobs, argv, creation time
    and git version; shard ledgers are flagged as partial, and a merged
    ledger (outside deterministic mode) names every contributing shard
    ledger. *)

val table5_csv : Campaign.row list -> string
(** One line per (chip, environment, app) cell: errors, runs, error
    rate and dominant failure mode (commas in messages become [';']). *)

val table5_md : Campaign.row list -> string
(** Table 5 as a GitHub-flavoured markdown table. *)

val table2_csv : (Tuning.result * float) list -> string

val table3_csv : Seq_finder.result -> string
(** One line per scored sequence: total and per-idiom weak counts. *)

val table6_csv : Harden.result list -> string
(** One line per (app, chip) hardening result; fence sites are
    [';']-separated. *)

val patches_csv : (string * Patch_finder.result) list -> string
(** One line per (chip, idiom, distance, location) cell of Fig. 3 with
    its weak count. *)

val spreads_csv : (string * Spread_finder.result) list -> string
(** One line per (chip, spread, idiom) point of Fig. 4 with its
    score. *)

(** {1 Campaign comparison}

    [gpuwmm compare A B] diffs two campaign ledgers cell by cell.  The
    testing environment's job is to {e expose} errors, so a cell whose
    error-exposure rate drops by more than the tolerance — or a missing
    row/cell — is a regression; rises are improvements; failure modes
    appearing in or vanishing from the per-cell histograms are notes. *)

type comparison = {
  regressions : string list;
  improvements : string list;
  notes : string list;
}

val compare_campaigns :
  tolerance:float ->
  baseline:Campaign.row list ->
  candidate:Campaign.row list ->
  comparison
(** [tolerance] is an absolute error-rate delta (e.g. 0.02 allows a two
    percentage-point drop before flagging a regression).  Raises
    [Invalid_argument] unless it is finite and non-negative. *)

val pp_comparison : Format.formatter -> comparison -> unit
