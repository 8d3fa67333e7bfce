(** Result digests: what each measured operation must reproduce. *)

val digest_string : string -> string
(** Hex MD5. *)

val digest_file : string -> string

type book
(** The reference digests every run is checked against, one per result
    key (a Table 5 pass, a tuning run, a campaign of the campaign pool,
    a workload's simulated-statistics sample).  Keys name the inputs
    (pool slot, campaign seed), never the run's own seed. *)

val recording : unit -> book
(** An empty book that records the first digest seen for each key. *)

val load : string -> book
(** The reference committed at a path; checking only.  A missing file
    is an empty book, so every check fails. *)

val check : book -> key:string -> string -> (unit, string) result
(** The digest must equal the reference for [key].  A key with no
    reference is an error, except in a {!recording} book, which records
    it.  A mismatch names the key and both digests. *)

val save : book -> string -> unit
(** Write every record, sorted by key. *)

val campaign_rows : string -> (Core.Campaign.row list, string) result
(** The reduced Table 5 rows of a finished campaign ledger.  Fails on an
    unreadable ledger, a missing footer or result record, and on
    quarantined jobs: a degraded campaign is a failed operation. *)

val rows_digest : Core.Campaign.row list -> string

val tuning_digest : Core.Tuning.result -> string
(** Digest of the tuning result record with [elapsed_s] zeroed, the only
    wall-clock field it carries. *)

val tuning_result : string -> (Core.Tuning.result, string) result
(** The tuning result record of a finished ledger. *)
