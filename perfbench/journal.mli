(** Campaign latencies read from a [gpuwmm serve] queue journal.

    The daemon stamps every journal event with its wall clock, so the
    submit-to-merged-ledger latency of a served campaign is
    [Finished.t - Submitted.t], free of the client's polling interval. *)

type campaign = {
  id : string;
  submitted : float;  (** [Submitted.t] *)
  leased : (int * float) list;  (** shard -> first [Leased.t] *)
  shard_done : (int * float) list;  (** shard -> first [Shard_done.t] *)
  finished : (float * string * string option) option;
      (** [(t, status, merged ledger)] of the [Finished] event *)
  requeues : int;
  quarantines : int;
}

val campaigns : Core.Queue.event list -> campaign list
(** One entry per submitted campaign, in submission order.  Events for
    unknown ids are ignored, as {!Core.Queue.apply} does. *)

val latency : campaign -> float option
(** [Finished.t - Submitted.t]; [None] while unfinished. *)

val clean : campaign -> bool
(** Finished ["done"] with a merged ledger, never requeued or
    quarantined — anything else is a failed operation. *)

val queue_wait : campaign -> float option
(** Submission to the first lease of any shard. *)
