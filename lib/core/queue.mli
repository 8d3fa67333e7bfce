(** The durable campaign job queue behind [gpuwmm serve].

    The daemon's only persistent state is an append-only JSONL journal
    of {!event}s, written and read through {!Jsonl}: one line per
    event, one write per line, a torn tail dropped on load and healed
    by the next append.  Replaying the journal rebuilds the full queue
    {!state} — which campaigns were submitted, which shard work units
    are pending, leased, done or quarantined — so a daemon killed at
    any point restarts into exactly the state it had durably reached.

    The module is deliberately pure apart from {!append}/{!load}: the
    state machine ({!apply}, {!replay}, {!next_lease}) does no I/O and
    is property-tested in [test/test_serve.ml] — in particular, the
    replay of any journal prefix yields a consistent state with the
    same completed-shard set as the events recorded. *)

(** A campaign submission, decomposed into [workers] shard-ledger work
    units (see {!Shard}).  [id] is assigned by the daemon. *)
type spec = {
  id : string;
  kind : string;  (** campaign kind; ["test"] today *)
  chip : string;
  app : string option;  (** [None] = all registered applications *)
  runs : int;
  env : string;
  seed : int;
  workers : int;  (** shard count [N]; one work unit per shard *)
  priority : int;  (** higher leases first *)
  max_attempts : int;  (** lease attempts before a shard quarantines *)
}

type event =
  | Submitted of { t : float; spec : spec }
  | Leased of {
      t : float;
      id : string;
      shard : int;  (** 1-based shard index *)
      pid : int;
      attempt : int;  (** 1-based lease attempt *)
      deadline : float;  (** absolute; the lease expires past this *)
    }
  | Shard_done of { t : float; id : string; shard : int; degraded : bool }
  | Requeued of {
      t : float;
      id : string;
      shard : int;
      attempt : int;  (** failed attempts so far *)
      reason : string;
      not_before : float;  (** absolute backoff gate for the next lease *)
    }
  | Quarantined of { t : float; id : string; shard : int; reason : string }
  | Finished of {
      t : float;
      id : string;
      status : string;  (** ["done"], ["degraded"] or ["failed"] *)
      ledger : string option;  (** the merged ledger, when one was written *)
    }

val spec : spec Codec.t
(** The spec's fields as the [submit] event writes them (and [/jobs]
    lists them), [app] only when set. *)

val event_to_json : event -> Json.t

val event_of_json : Json.t -> (event, string) result
(** Exact inverse of {!event_to_json} (qcheck round-trip tested). *)

val append : path:string -> event -> unit
(** Append one event to the journal with {!Jsonl.append}, creating it
    if needed.  A torn tail a crash left behind is healed first, so
    the event never glues onto a fragment. *)

val load : string -> (event list * bool, string) result
(** Parse a journal, oldest first.  A missing file is an empty journal.
    The flag is [true] when a trailing torn line was dropped (the
    daemon died mid-write); a malformed line anywhere {e else} is an
    error naming the journal and the line ({!Jsonl.parse}). *)

(** {1 The lease state machine} *)

type shard_state =
  | Pending of { attempt : int; not_before : float }
      (** awaiting a lease; [attempt] failed attempts so far *)
  | Leased of { pid : int; attempt : int; since : float; deadline : float }
  | Done of { degraded : bool }
  | Quarantined of { reason : string }

type job = {
  spec : spec;
  shards : shard_state array;  (** index [k-1] holds shard [k] *)
  finished : string option;  (** terminal status once [Finished] *)
  ledger : string option;
}

type state = {
  jobs : job list;  (** submission order *)
  retries : int;  (** [Requeued] events applied (monotonic) *)
  quarantines : int;  (** [Quarantined] events applied (monotonic) *)
}

val empty : state

val apply : state -> event -> state
(** Fold one event into the state.  Events naming an unknown job or an
    out-of-range shard are ignored — replay must survive any journal a
    crashed daemon left behind. *)

val replay : event list -> state

val find : state -> string -> job option

val shard_get : job -> int -> shard_state option
(** [shard_get job k] is shard [k]'s state (1-based). *)

val next_lease : now:float -> state -> (job * int) option
(** The ripest pending work unit: among unfinished jobs' [Pending]
    shards whose [not_before] has passed, the highest [priority], then
    earliest submission, then lowest shard index.  [None] when nothing
    is leasable right now. *)

val backoff_s : base:float -> seed:int -> attempt:int -> float
(** Capped exponential backoff before re-leasing a failed shard:
    [base * 2^min(attempt-1, 6)] scaled by a seed-derived jitter in
    [0.5, 1.5), so the schedule is deterministic per (seed, attempt)
    but fleet-wide thundering herds decorrelate.  {!Exec} retries run
    at once, with no backoff. *)

(** {1 Queue metrics} *)

type stats = {
  s_pending : int;
  s_leased : int;
  s_done : int;  (** completed shard work units *)
  s_quarantined : int;  (** quarantined shard work units *)
  s_active_jobs : int;
  s_finished_jobs : int;
  s_oldest_lease_age_s : float;  (** 0 when nothing is leased *)
}

val stats : now:float -> state -> stats
