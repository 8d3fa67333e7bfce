(** [gpuwmm merge]: combine k/N shard ledgers into one canonical ledger.

    Only [test] and [table 5] campaigns shard ([--shard k/N]): their
    cells are independent of each other.  Each shard writes one ledger
    holding its slice of the one stream of [campaign] cells (global
    plan indices, unsharded per-job seeds) and a [shard] header field.
    [merge] reassembles them into the ledger a single process would
    have written; under [GPUWMM_LEDGER_DETERMINISTIC] the output is
    byte-identical to that single-process run, so [gpuwmm report],
    [compare] and [--resume] work on it unchanged.

    The merge is fail-closed: it refuses (writing nothing) when [out]
    is one of the inputs under any spelling, a ledger's campaign kind
    is not [test] or [table5], a shard of the set is missing, two
    ledgers claim the same shard or record the same job, a job is
    missing from the interleaved stream (an interrupted shard — resume
    it first), or the shards' plan headers (schema, campaign kind,
    seed, parameter grid) disagree. *)

type outcome = {
  out_path : string;
  shards : int;  (** shard ledgers merged *)
  jobs : int;  (** job records in the merged ledger *)
  quarantined : int;
      (** failed records carried over; when non-zero the merged ledger
          is degraded and carries no result record (finish it with
          [--resume]) *)
}

val merge : out:string -> string list -> (outcome, string) result
(** [merge ~out paths] validates the shard set, interleaves the job
    streams by global plan index, reconstructs the campaign result
    record (unless jobs were quarantined), and writes the merged ledger
    to [out].  Outside deterministic mode the output header carries a
    [merged] field naming every contributing shard ledger (surfaced by
    [gpuwmm report]'s provenance stamp). *)
