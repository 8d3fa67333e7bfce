(* The durable campaign job queue behind `gpuwmm serve`.

   Everything the daemon must remember across a crash is an event on an
   append-only JSONL journal; everything else (which worker pid holds
   which lease) is reconstructed or revoked on restart.  The state
   machine below is pure — I/O is confined to [append]/[load] — so the
   crash-replay property ("cut the journal anywhere, replay, and the
   completed-shard set is consistent") is testable without spawning a
   single process. *)

type spec = {
  id : string;
  kind : string;
  chip : string;
  app : string option;
  runs : int;
  env : string;
  seed : int;
  workers : int;
  priority : int;
  max_attempts : int;
}

type event =
  | Submitted of { t : float; spec : spec }
  | Leased of {
      t : float;
      id : string;
      shard : int;
      pid : int;
      attempt : int;
      deadline : float;
    }
  | Shard_done of { t : float; id : string; shard : int; degraded : bool }
  | Requeued of {
      t : float;
      id : string;
      shard : int;
      attempt : int;
      reason : string;
      not_before : float;
    }
  | Quarantined of { t : float; id : string; shard : int; reason : string }
  | Finished of {
      t : float;
      id : string;
      status : string;
      ledger : string option;
    }

(* ------------------------------------------------------------------ *)
(* Codec                                                                *)

(* The submit event writes every spec field, [app] only when set. *)
let spec =
  Codec.(
    obj (fun id kind chip app runs env seed workers priority max_attempts ->
        { id; kind; chip; app; runs; env; seed; workers; priority;
          max_attempts })
    |> mem "id" string (fun s -> s.id)
    |> mem "kind" string (fun s -> s.kind)
    |> mem "chip" string (fun s -> s.chip)
    |> opt "app" string (fun s -> s.app)
    |> mem "runs" int (fun s -> s.runs)
    |> mem "env" string (fun s -> s.env)
    |> mem "seed" int (fun s -> s.seed)
    |> mem "workers" int (fun s -> s.workers)
    |> mem "priority" int (fun s -> s.priority)
    |> mem "max_attempts" int (fun s -> s.max_attempts)
    |> seal)

let event_to_json ev =
  let open Json in
  match ev with
  | Submitted { t; spec = s } ->
    Assoc (("ev", String "submit") :: ("t", Float t) :: Codec.fields spec s)
  | Leased { t; id; shard; pid; attempt; deadline } ->
    Assoc
      [ ("ev", String "lease"); ("t", Float t); ("id", String id);
        ("shard", Int shard); ("pid", Int pid); ("attempt", Int attempt);
        ("deadline", Float deadline) ]
  | Shard_done { t; id; shard; degraded } ->
    Assoc
      ([ ("ev", String "done"); ("t", Float t); ("id", String id);
         ("shard", Int shard) ]
      @ if degraded then [ ("degraded", Bool true) ] else [])
  | Requeued { t; id; shard; attempt; reason; not_before } ->
    Assoc
      [ ("ev", String "requeue"); ("t", Float t); ("id", String id);
        ("shard", Int shard); ("attempt", Int attempt);
        ("reason", String reason); ("not_before", Float not_before) ]
  | Quarantined { t; id; shard; reason } ->
    Assoc
      [ ("ev", String "quarantine"); ("t", Float t); ("id", String id);
        ("shard", Int shard); ("reason", String reason) ]
  | Finished { t; id; status; ledger } ->
    Assoc
      ([ ("ev", String "finish"); ("t", Float t); ("id", String id);
         ("status", String status) ]
      @ match ledger with Some l -> [ ("ledger", String l) ] | None -> [])

let event_of_json j =
  let open Codec in
  let ( let* ) = Result.bind in
  let* ev = get string "ev" j in
  let* t = get float "t" j in
  match ev with
  | "submit" ->
    let* spec = decode spec j in
    Ok (Submitted { t; spec })
  | "lease" ->
    let* id = get string "id" j in
    let* shard = get int "shard" j in
    let* pid = get int "pid" j in
    let* attempt = get int "attempt" j in
    let* deadline = get float "deadline" j in
    Ok (Leased { t; id; shard; pid; attempt; deadline })
  | "done" ->
    let* id = get string "id" j in
    let* shard = get int "shard" j in
    let* degraded = get_opt bool "degraded" j in
    let degraded = Option.value degraded ~default:false in
    Ok (Shard_done { t; id; shard; degraded })
  | "requeue" ->
    let* id = get string "id" j in
    let* shard = get int "shard" j in
    let* attempt = get int "attempt" j in
    let* reason = get string "reason" j in
    let* not_before = get float "not_before" j in
    Ok (Requeued { t; id; shard; attempt; reason; not_before })
  | "quarantine" ->
    let* id = get string "id" j in
    let* shard = get int "shard" j in
    let* reason = get string "reason" j in
    Ok (Quarantined { t; id; shard; reason })
  | "finish" ->
    let* id = get string "id" j in
    let* status = get string "status" j in
    let* ledger = get_opt string "ledger" j in
    Ok (Finished { t; id; status; ledger })
  | k -> Error (Printf.sprintf "unknown queue event %S" k)

(* ------------------------------------------------------------------ *)
(* Journal I/O: one line per event through Jsonl, whose [append] heals
   a torn tail before it writes.                                        *)

let append ~path ev = Jsonl.append path (event_to_json ev)

let load path =
  match Jsonl.read path with
  | Error _ -> Ok ([], false)
  | Ok text ->
    Result.map_error (( ^ ) (path ^ ": ")) (Jsonl.parse event_of_json text)

(* ------------------------------------------------------------------ *)
(* The lease state machine                                              *)

type shard_state =
  | Pending of { attempt : int; not_before : float }
  | Leased of { pid : int; attempt : int; since : float; deadline : float }
  | Done of { degraded : bool }
  | Quarantined of { reason : string }

type job = {
  spec : spec;
  shards : shard_state array;
  finished : string option;
  ledger : string option;
}

type state = {
  jobs : job list;
  retries : int;
  quarantines : int;
}

let empty = { jobs = []; retries = 0; quarantines = 0 }

let find st id = List.find_opt (fun j -> j.spec.id = id) st.jobs

let shard_get job k =
  if k >= 1 && k <= Array.length job.shards then Some job.shards.(k - 1)
  else None

(* Replace one job's shard state, leaving everything else untouched.
   The arrays are copied: states are immutable values so earlier
   snapshots stay valid (the replay property tests rely on it). *)
let update_shard st id k f =
  { st with
    jobs =
      List.map
        (fun j ->
          if j.spec.id = id && k >= 1 && k <= Array.length j.shards then begin
            let shards = Array.copy j.shards in
            shards.(k - 1) <- f shards.(k - 1);
            { j with shards }
          end
          else j)
        st.jobs }

let apply st ev =
  (* Counter events must not count when the shard they name does not
     exist — replay ignores junk events entirely, counters included. *)
  let targets_shard id k =
    match find st id with
    | Some j -> k >= 1 && k <= Array.length j.shards
    | None -> false
  in
  match ev with
  | Submitted { spec; _ } ->
    if spec.workers < 1 || find st spec.id <> None then st
    else
      let job =
        { spec;
          shards =
            Array.make spec.workers (Pending { attempt = 0; not_before = 0.0 });
          finished = None;
          ledger = None }
      in
      { st with jobs = st.jobs @ [ job ] }
  | Leased { id; shard; pid; attempt; t; deadline } ->
    update_shard st id shard (fun _ ->
        Leased { pid; attempt; since = t; deadline })
  | Shard_done { id; shard; degraded; _ } ->
    update_shard st id shard (fun _ -> Done { degraded })
  | Requeued { id; shard; attempt; not_before; _ } ->
    if not (targets_shard id shard) then st
    else
      let st =
        update_shard st id shard (fun _ -> Pending { attempt; not_before })
      in
      { st with retries = st.retries + 1 }
  | Quarantined { id; shard; reason; _ } ->
    if not (targets_shard id shard) then st
    else
      let st = update_shard st id shard (fun _ -> Quarantined { reason }) in
      { st with quarantines = st.quarantines + 1 }
  | Finished { id; status; ledger; _ } ->
    { st with
      jobs =
        List.map
          (fun j ->
            if j.spec.id = id then { j with finished = Some status; ledger }
            else j)
          st.jobs }

let replay evs = List.fold_left apply empty evs

let next_lease ~now st =
  (* Submission order is the list order, so a stable scan with a "better
     than" comparison implements priority-then-FIFO-then-shard-index. *)
  let best = ref None in
  List.iteri
    (fun j_idx job ->
      if job.finished = None then
        Array.iteri
          (fun i s ->
            match s with
            | Pending { not_before; _ } when not_before <= now -> (
              let cand = (-job.spec.priority, j_idx, i) in
              match !best with
              | Some (key, _, _) when key <= cand -> ()
              | _ -> best := Some (cand, job, i + 1))
            | _ -> ())
          job.shards)
    st.jobs;
  match !best with None -> None | Some (_, job, k) -> Some (job, k)

let backoff_s ~base ~seed ~attempt =
  let attempt = Int.max 1 attempt in
  let rng = Gpusim.Rng.create (Gpusim.Rng.subseed seed (0x5eed + attempt)) in
  let jitter = 0.5 +. Gpusim.Rng.float rng in
  base *. float_of_int (1 lsl Int.min (attempt - 1) 6) *. jitter

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

type stats = {
  s_pending : int;
  s_leased : int;
  s_done : int;
  s_quarantined : int;
  s_active_jobs : int;
  s_finished_jobs : int;
  s_oldest_lease_age_s : float;
}

let stats ~now st =
  let pending = ref 0
  and leased = ref 0
  and sdone = ref 0
  and quarantined = ref 0
  and oldest = ref 0.0 in
  List.iter
    (fun j ->
      Array.iter
        (fun s ->
          match s with
          | Pending _ -> incr pending
          | Leased { since; _ } ->
            incr leased;
            oldest := Float.max !oldest (now -. since)
          | Done _ -> incr sdone
          | Quarantined _ -> incr quarantined)
        j.shards)
    st.jobs;
  let finished =
    List.length (List.filter (fun j -> j.finished <> None) st.jobs)
  in
  { s_pending = !pending;
    s_leased = !leased;
    s_done = !sdone;
    s_quarantined = !quarantined;
    s_active_jobs = List.length st.jobs - finished;
    s_finished_jobs = finished;
    s_oldest_lease_age_s = Float.max 0.0 !oldest }
