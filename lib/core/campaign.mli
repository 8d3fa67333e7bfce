(** Application testing campaigns (Sec. 4, Table 5).

    For each (chip, environment, application) combination, the application
    is executed repeatedly under the environment and erroneous runs are
    counted.  The paper tests each combination for one hour; here the
    budget is an execution count, and rates are compared against the same
    5% effectiveness threshold.

    The grid is planned, executed and reduced through {!Exec}: one job per
    cell with a pre-derived seed, so results are independent of execution
    order and identical across executor backends. *)

type cell = {
  app : string;
  errors : int;
  runs : int;
  example : string;  (** first error message observed, if any *)
  histogram : (string * int) list;
      (** error message -> occurrence count, sorted by descending count
          (ties by message); reveals a cell's dominant failure modes.
          Error messages gain a [" \[soft-error\]"] suffix when injected
          bit-flips (and no reorderings) occurred in the erroneous run,
          or [" \[soft-error?\]"] when both did *)
  quarantined : string option;
      (** [Some reason] when the cell's job exhausted its supervised
          attempts under [--keep-going]: the cell carries no
          measurements ([runs = 0]) and reports render it degraded *)
}

type row = {
  chip : string;
  environment : string;
  cells : cell list;
  capable : int;  (** applications with at least one erroneous run (b) *)
  effective : int;  (** applications with error rate above 5% (a) *)
}

val effectiveness_threshold : float
(** 0.05, as in the paper. *)

val test_app :
  chip:Gpusim.Chip.t ->
  env:Environment.t ->
  app:Apps.App.t ->
  runs:int ->
  seed:int ->
  cell
(** Run one combination.  Applications that ship fences run [Original];
    the [-nf] variants strip them (encoded in the application itself).
    Per-run seeds are [Rng.subseed seed i]. *)

val dominant : cell -> (string * int) option
(** The cell's most frequent error message and its count, if any. *)

val merge_histograms : (string * int) list list -> (string * int) list
(** Order-independent merge of error histograms (summed counts, sorted by
    descending count then message). *)

val summarise_names :
  chip:string -> env:string -> cell list -> row
(** Summarise one row from already-computed cells, identified by name
    only (no chip/environment values needed — what ledger-level tooling
    has). *)

val rows_of_cells :
  chips:string list ->
  envs:string list ->
  apps_per_row:int ->
  cell list ->
  (row list, string) result
(** Rebuild the reduced row list from a flat plan-order cell list
    (chips x envs nesting, [apps_per_row] cells per row).  [gpuwmm
    merge] uses this to reconstruct a merged ledger's result record
    from its job records; errors out when the cell count does not match
    the grid. *)

val run :
  ?backend:Exec.backend ->
  ?journal:Runlog.journal ->
  chips:Gpusim.Chip.t list ->
  environments_for:(Gpusim.Chip.t -> Environment.t list) ->
  apps:Apps.App.t list ->
  runs:int ->
  seed:int ->
  unit ->
  row list
(** The full grid, row per (chip, environment).  [environments_for]
    builds the environment list per chip, because the systematic strategy
    uses per-chip tuned parameters.  [backend] selects the executor
    (default {!Exec.Serial}); results are bit-identical across
    backends.  [journal] journals every completed cell to a run ledger
    (phase ["campaign"]) and replays cells cached by [--resume].  Raises
    [Invalid_argument] unless [runs] is positive. *)

(** {1 Ledger codecs} *)

val cell : cell Codec.t
(** A Table 5 cell as a campaign job record stores it; [quarantined] is
    omitted at [None]. *)

val cell_to_json : cell -> Json.t
val cell_codec : cell Runlog.codec

val rows : row list Codec.t
(** The campaign's reduced result, as stored in a ledger's result
    record and rendered by [gpuwmm report]/[compare]. *)

val rows_to_json : row list -> Json.t
val rows_of_json : Json.t -> (row list, string) result

val sys_tuned_for : Gpusim.Chip.t -> Stress.tuned
(** The shipped Table 2 parameters for a chip (used when the caller does
    not re-run tuning). *)

val environments : Gpusim.Chip.t -> Environment.t list
(** The eight Table 5 environments with the chip's shipped parameters. *)

val environment : chip:Gpusim.Chip.t -> string -> Environment.t option
(** The environment of {!environments} with this label, if any. *)

val test_grid :
  chip:string -> env:string -> apps:string list -> runs:int -> Json.t
(** The ledger parameter grid of a [gpuwmm test] campaign.  [gpuwmm
    test], [gpuwmm chaos] and the [serve] daemon's shard checks all
    build it here, so their ledgers and resume validation agree byte for
    byte. *)

val table_grid : chips:string list -> budget:Budget.t -> runs:int -> Json.t
(** The ledger parameter grid of a [gpuwmm table N] or [figure N]
    campaign: its chips, budget and [--runs], and no environments or
    applications. *)

val grid_rows : Json.t -> (string list * string list * int, string) result
(** A Table 5 grid's chips, environment labels and applications per
    row, the shape {!rows_of_cells} regroups by.  A grid without
    environments is the eight-environment sweep over every application. *)
