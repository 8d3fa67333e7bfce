(* The `gpuwmm serve` daemon.

   One process, three concerns:

   - an HTTP face (Httpd.start_routes) that accepts campaign
     submissions and serves the queue and fleet state;
   - a durable queue (Queue): every transition is an append-only
     journal event, applied to an in-memory state under one mutex;
   - the Procs lease loop over that state, spawning shard workers
     (self-exec `gpuwmm test --shard k/N`, the argv a shard run across
     machines uses) under deadlines, then merging finished campaigns.

   Crash tolerance is structural rather than defensive: the daemon
   never needs to shut down cleanly, because restart = journal replay
   + fail-closed ledger inspection.  A shard is only ever believed
   complete when its ledger says so under the same validation as
   `--resume` — the journal is an optimisation log, the ledgers are the
   truth. *)

type config = {
  dir : string;
  addr : string;
  port : int;
  exe : string;
  max_workers : int;
  lease_s : float;
  backoff_base_s : float;
  max_attempts : int;
  until_idle : bool;
  quiet : bool;
}

let default =
  { dir = ".";
    addr = "127.0.0.1";
    port = 0;
    exe = Sys.executable_name;
    max_workers = 2;
    lease_s = 30.0;
    backoff_base_s = Procs.default_backoff_base_s;
    max_attempts = Procs.default_attempts;
    until_idle = false;
    quiet = false }

(* ------------------------------------------------------------------ *)
(* Campaign geometry: paths and argv must mirror the `gpuwmm test`
   sharding path exactly, and the grid is that command's own
   Campaign.test_grid, or the merged ledger would not be byte-identical
   to a single-process run and resume validation would refuse
   perfectly good shards.                                               *)

let ledger_path cfg id = Filename.concat cfg.dir (id ^ ".jsonl")
let shard_path cfg id k = Printf.sprintf "%s.shard%d" (ledger_path cfg id) k

let shard_paths cfg (spec : Queue.spec) =
  List.init spec.workers (fun i -> shard_path cfg spec.id (i + 1))
let journal_path cfg = Filename.concat cfg.dir "queue.jsonl"

let app_names (spec : Queue.spec) =
  match spec.app with
  | Some a -> [ a ]
  | None -> List.map (fun a -> a.Apps.App.name) Apps.Registry.all

let grid_of (spec : Queue.spec) =
  Campaign.test_grid ~chip:spec.chip ~env:spec.env ~apps:(app_names spec)
    ~runs:spec.runs

(* A campaign runs on at most one shard per cell: a shard past the last
   cell would be a worker process with no job. *)
let shard_count (spec : Queue.spec) =
  Int.min spec.workers (List.length (app_names spec))

let worker_argv cfg (spec : Queue.spec) ~k =
  [ cfg.exe; "test";
    "--chip"; spec.chip;
    "--runs"; string_of_int spec.runs;
    "--env"; spec.env;
    "--seed"; string_of_int spec.seed;
    "-j"; "1"; "-q";
    "--shard"; Shard.to_string (Shard.make ~k ~n:spec.workers ());
    "--log"; shard_path cfg spec.id k ]
  @ match spec.app with Some a -> [ "--app"; a ] | None -> []

(* Shard [k] of a campaign for the supervisor.  Its ledger is the
   truth: the check is the only way a shard is ever marked done without
   the daemon having watched the worker exit — in particular during
   restart reconciliation. *)
let shard cfg (spec : Queue.spec) k =
  let ledger = shard_path cfg spec.id k in
  { Procs.argv = worker_argv cfg spec ~k;
    ledger;
    check =
      (fun () ->
        Procs.check_ledger ~campaign:spec.kind ~seed:spec.seed
          ~grid:(grid_of spec) ~k ~n:spec.workers ledger) }

(* ------------------------------------------------------------------ *)
(* The daemon's documents, each declared once for the daemon and for
   its `gpuwmm submit`/`jobs` client.                                   *)

(* The /submit body: every field but [chip] has a default, and an absent
   [max_attempts] stands for the daemon's own, which [parse_submission]
   resolves.  The spec's [id] and [max_attempts] are not written. *)
let submission =
  Codec.(
    obj (fun kind chip app runs env seed workers priority max_attempts ->
        ( { Queue.id = "";  (* assigned under the state mutex *)
            kind; chip; app; runs; env; seed; workers; priority;
            max_attempts = 0 },
          max_attempts ))
    |> dflt "kind" string ~default:"test" (fun (s, _) -> s.Queue.kind)
    |> mem "chip" string (fun (s, _) -> s.Queue.chip)
    |> opt "app" string (fun (s, _) -> s.Queue.app)
    |> dflt "runs" int ~default:100 (fun (s, _) -> s.Queue.runs)
    |> dflt "env" string ~default:"sys-str+" (fun (s, _) -> s.Queue.env)
    |> dflt "seed" int ~default:42 (fun (s, _) -> s.Queue.seed)
    |> dflt "workers" int ~default:2 (fun (s, _) -> s.Queue.workers)
    |> dflt "priority" int ~default:0 (fun (s, _) -> s.Queue.priority)
    |> opt "max_attempts" int snd
    |> seal)

let parse_submission ~default_max_attempts body : (Queue.spec, string) result
    =
  let ( let* ) = Result.bind in
  let* j =
    Result.map_error (Printf.sprintf "body is not JSON: %s") (Json.of_string body)
  in
  let* ( ({ Queue.kind; chip; app; runs; env; workers; _ } as spec),
         max_attempts ) =
    Codec.decode submission j
  in
  let max_attempts = Option.value max_attempts ~default:default_max_attempts in
  if kind <> "test" then
    Error (Printf.sprintf "unsupported campaign kind %S (only \"test\")" kind)
  else if runs < 1 then Error "runs must be >= 1"
  else if workers < 1 || workers > Shard.max_shards then
    Error (Printf.sprintf "workers must be in 1..%d" Shard.max_shards)
  else if max_attempts < 1 then Error "max_attempts must be >= 1"
  else
    match Gpusim.Chip.by_name chip with
    | None -> Error (Printf.sprintf "unknown chip %S" chip)
    | Some c -> (
      if Campaign.environment ~chip:c env = None then
        Error (Printf.sprintf "unknown environment %S" env)
      else
        match app with
        | Some a when Apps.Registry.by_name a = None ->
          Error (Printf.sprintf "unknown application %S" a)
        | _ -> Ok { spec with max_attempts })

(* The /submit response: the new job's id and the shards it was
   enqueued with, which can be fewer than asked ([shard_count]). *)
let accepted =
  Codec.(
    obj (fun id workers (_ : string) -> (id, workers))
    |> mem "id" string fst
    |> mem "workers" int snd
    |> mem "status" string (fun _ -> "queued")
    |> seal)

type job_status = {
  status : string;
  shards_done : int;
  ledger : string option;
  shards : Json.t list;
}

let job_status =
  Codec.(
    obj (fun status shards_done ledger shards ->
        { status; shards_done; ledger; shards })
    |> mem "status" string (fun s -> s.status)
    |> mem "shards_done" int (fun s -> s.shards_done)
    |> opt "ledger" string (fun s -> s.ledger)
    |> mem "shards" (list json) (fun s -> s.shards)
    |> seal)

(* A /jobs item: the job's spec, then its status. *)
let jobs =
  let item =
    Codec.(
      conv
        (fun (spec, st) ->
          Json.Assoc (fields Queue.spec spec @ fields job_status st))
        (fun j ->
          Result.bind (decode Queue.spec j) (fun spec ->
              Result.map (fun st -> (spec, st)) (decode job_status j)))
        json)
  in
  Codec.(obj Fun.id |> mem "jobs" (list item) Fun.id |> seal)

let shard_state_json (s : Queue.shard_state) =
  let open Json in
  match s with
  | Queue.Pending { attempt; not_before } ->
    Assoc
      ([ ("state", String "pending"); ("attempt", Int attempt) ]
      @ if not_before > 0.0 then [ ("not_before", Float not_before) ] else [])
  | Queue.Leased { pid; attempt; since; deadline } ->
    Assoc
      [ ("state", String "leased"); ("pid", Int pid); ("attempt", Int attempt);
        ("since", Float since); ("deadline", Float deadline) ]
  | Queue.Done { degraded } ->
    Assoc
      (("state", String "done")
      :: (if degraded then [ ("degraded", Bool true) ] else []))
  | Queue.Quarantined { reason } ->
    Assoc [ ("state", String "quarantined"); ("reason", String reason) ]

let listing (st : Queue.state) =
  List.map
    (fun (j : Queue.job) ->
      let shards_done =
        Array.fold_left
          (fun acc st -> match st with Queue.Done _ -> acc + 1 | _ -> acc)
          0 j.shards
      in
      let status =
        match j.finished with
        | Some st -> st
        | None ->
          let pending = function Queue.Pending _ -> true | _ -> false in
          if Array.for_all pending j.shards then "queued" else "running"
      in
      ( j.spec,
        { status; shards_done; ledger = j.ledger;
          shards = Array.to_list (Array.map shard_state_json j.shards) } ))
    st.jobs

let queue_json ~now st =
  let open Json in
  let q = Queue.stats ~now st in
  Assoc
    [ ("pending", Int q.Queue.s_pending); ("leased", Int q.Queue.s_leased);
      ("done", Int q.Queue.s_done);
      ("quarantined", Int q.Queue.s_quarantined);
      ("active_jobs", Int q.Queue.s_active_jobs);
      ("finished_jobs", Int q.Queue.s_finished_jobs);
      ("retries", Int st.Queue.retries);
      ("quarantines", Int st.Queue.quarantines);
      ("oldest_lease_age_s", Float q.Queue.s_oldest_lease_age_s) ]

let queue_prometheus ~now st =
  let q = Queue.stats ~now st in
  let count kind name n = Telemetry.sample ~kind name (string_of_int n) in
  Telemetry.exposition
    [ count "gauge" "gpuwmm_queue_depth" q.Queue.s_pending;
      count "gauge" "gpuwmm_queue_leased" q.Queue.s_leased;
      count "gauge" "gpuwmm_queue_shards_done" q.Queue.s_done;
      count "gauge" "gpuwmm_queue_shards_quarantined" q.Queue.s_quarantined;
      count "gauge" "gpuwmm_queue_active_jobs" q.Queue.s_active_jobs;
      count "gauge" "gpuwmm_queue_finished_jobs" q.Queue.s_finished_jobs;
      count "counter" "gpuwmm_queue_retries_total" st.Queue.retries;
      count "counter" "gpuwmm_queue_quarantined_total" st.Queue.quarantines;
      Telemetry.sample ~kind:"gauge" "gpuwmm_queue_oldest_lease_age_seconds"
        (Printf.sprintf "%g" q.Queue.s_oldest_lease_age_s) ]

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)

let run cfg =
  (try Unix.mkdir cfg.dir 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let journal = journal_path cfg in
  let log fmt =
    Printf.ksprintf
      (fun s ->
        if not cfg.quiet then begin
          print_string ("serve: " ^ s ^ "\n");
          flush stdout
        end)
      fmt
  in
  match Queue.load journal with
  | Error e ->
    (* Fail closed, like --resume: a corrupt journal means operator
       attention, not a silent fresh queue that forgets submissions. *)
    prerr_endline ("gpuwmm serve: corrupt queue journal: " ^ e);
    1
  | Ok (events, torn) ->
    (* The fragment stays on disk until the first append heals it. *)
    if torn then log "dropped a torn trailing journal line (crash mid-write)";
    let st = ref (Queue.replay events) in
    let mu = Mutex.create () in
    let locked f =
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
    in
    let emit ev =
      (* Callers hold [mu].  Journal first, memory second: a crash
         between the two replays the event on restart; the other order
         could act on state that was never made durable. *)
      Queue.append ~path:journal ev;
      st := Queue.apply !st ev
    in
    let sup =
      Procs.create ~exe:cfg.exe ~log:(log "%s") ~max_workers:cfg.max_workers
        ~lease_s:cfg.lease_s ~backoff_base_s:cfg.backoff_base_s
        ~state:(fun () -> !st)
        ~emit (shard cfg)
    in
    let stopping = Atomic.make false in
    let install_signals () =
      List.iter
        (fun s ->
          try
            Sys.set_signal s
              (Sys.Signal_handle
                 (fun _ ->
                   Atomic.set stopping true;
                   Procs.wake sup))
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint ]
    in
    (* --- restart reconciliation ---------------------------------- *)
    let reconcile () =
      let now = Unix.gettimeofday () in
      List.iter
        (fun (job : Queue.job) ->
          if job.finished = None then
            Array.iteri
              (fun i sstate ->
                let k = i + 1 in
                let id = job.spec.id in
                match sstate with
                | Queue.Done _ | Queue.Quarantined _ -> ()
                | Queue.Pending _ | Queue.Leased _ -> (
                  (* The ledger is the only witness.  A lease's worker
                     belonged to the previous daemon process: a complete
                     ledger means the work survived the crash, anything
                     else revokes the lease.  A pending shard's ledger
                     closes the window between a worker's clean exit and
                     the Shard_done append. *)
                  match ((shard cfg job.spec k).check (), sstate) with
                  | Procs.Whole { degraded }, _ ->
                    emit (Queue.Shard_done { t = now; id; shard = k; degraded })
                  | _, Queue.Leased { attempt; _ } ->
                    if attempt >= job.spec.max_attempts then
                      emit
                        (Queue.Quarantined
                           { t = now; id; shard = k;
                             reason = "lease revoked on restart; attempts \
                                       exhausted" })
                    else
                      emit
                        (Queue.Requeued
                           { t = now; id; shard = k; attempt;
                             reason = "lease revoked on restart";
                             not_before = now })
                  | _ -> ()))
              job.shards)
        !st.Queue.jobs
    in
    let finish_ready_jobs ~now () =
      List.iter
        (fun (job : Queue.job) ->
          if job.finished = None then begin
            let terminal =
              Array.for_all
                (function
                  | Queue.Done _ | Queue.Quarantined _ -> true
                  | Queue.Pending _ | Queue.Leased _ -> false)
                job.shards
            in
            if terminal then
              let quarantined =
                Array.exists
                  (function Queue.Quarantined _ -> true | _ -> false)
                  job.shards
              in
              if quarantined then begin
                log "job %s failed: quarantined shard(s), nothing merged"
                  job.spec.id;
                emit
                  (Queue.Finished
                     { t = now; id = job.spec.id; status = "failed";
                       ledger = None })
              end
              else begin
                let out = ledger_path cfg job.spec.id in
                match Merge.merge ~out (shard_paths cfg job.spec) with
                | Ok o ->
                  let degraded =
                    o.Merge.quarantined > 0
                    || Array.exists
                         (function
                           | Queue.Done { degraded } -> degraded | _ -> false)
                         job.shards
                  in
                  let status = if degraded then "degraded" else "done" in
                  log "job %s finished %s: %d job record(s) merged into %s"
                    job.spec.id status o.Merge.jobs out;
                  emit
                    (Queue.Finished
                       { t = now; id = job.spec.id; status;
                         ledger = Some out })
                | Error e ->
                  log "job %s merge failed: %s" job.spec.id e;
                  emit
                    (Queue.Finished
                       { t = now; id = job.spec.id; status = "failed";
                         ledger = None })
              end
          end)
        !st.Queue.jobs
    in
    (* --- HTTP face ------------------------------------------------ *)
    (* The live fleet of the unfinished campaigns' workers, and the
       queue rendered under the lock. *)
    let observe render =
      let now = Unix.gettimeofday () in
      let queue, hb_paths =
        locked (fun () ->
            ( render ~now !st,
              List.concat_map
                (fun (job : Queue.job) ->
                  if job.finished = None then
                    List.map Heartbeat.hb_path (shard_paths cfg job.spec)
                  else [])
                !st.Queue.jobs ))
      in
      (Fleetview.load ~now hb_paths, queue)
    in
    let handler (req : Httpd.request) =
      match (req.Httpd.meth, req.Httpd.path) with
      | "POST", "/submit" -> (
        match
          parse_submission ~default_max_attempts:cfg.max_attempts
            req.Httpd.body
        with
        | Error e -> Httpd.respond ~status:400 (e ^ "\n")
        | Ok spec ->
          let resp =
            locked (fun () ->
                let taken id = Queue.find !st id <> None in
                let rec fresh n =
                  let id = Printf.sprintf "job-%d" n in
                  if taken id then fresh (n + 1) else id
                in
                let id = fresh (List.length !st.Queue.jobs + 1) in
                let spec =
                  { spec with Queue.id; workers = shard_count spec }
                in
                emit
                  (Queue.Submitted { t = Unix.gettimeofday (); spec });
                log "job %s submitted: %s %s runs=%d seed=%d workers=%d \
                     priority=%d"
                  id spec.Queue.chip spec.Queue.env spec.Queue.runs
                  spec.Queue.seed spec.Queue.workers spec.Queue.priority;
                Json.to_string (Codec.encode accepted (id, spec.Queue.workers)))
          in
          (* Lease it now, not at the next cadence step. *)
          Procs.wake sup;
          Httpd.respond ~content_type:"application/json" (resp ^ "\n"))
      | ("GET" | "HEAD"), "/jobs" ->
        let body =
          locked (fun () -> Json.to_string (Codec.encode jobs (listing !st)))
        in
        Httpd.respond ~content_type:"application/json" (body ^ "\n")
      | ("GET" | "HEAD"), "/status" ->
        let fleet, queue = observe queue_json in
        let body =
          Json.to_string
            (Json.Assoc
               [ ("queue", queue); ("fleet", Fleetview.render_json fleet) ])
        in
        Httpd.respond ~content_type:"application/json" (body ^ "\n")
      | _ -> Fleetview.route ~observe:(fun () -> observe queue_prometheus) req
    in
    let server =
      try Some (Httpd.start_routes ~addr:cfg.addr ~port:cfg.port handler)
      with Unix.Unix_error (e, _, _) ->
        prerr_endline
          ("gpuwmm serve: cannot bind " ^ cfg.addr ^ ": "
         ^ Unix.error_message e);
        None
    in
    match server with
    | None ->
      Procs.stop sup;
      1
    | Some server ->
      install_signals ();
      (* The banner is machine-read (CI parses the port out of it), so
         it prints even under --quiet. *)
      Printf.printf "gpuwmm serve: listening on http://%s:%d (state in %s)\n"
        cfg.addr (Httpd.port server) cfg.dir;
      flush stdout;
      locked reconcile;
      let queue_drained () =
        locked (fun () ->
            !st.Queue.jobs <> []
            && List.for_all
                 (fun (j : Queue.job) -> j.finished <> None)
                 !st.Queue.jobs)
      in
      let running () =
        (not (Atomic.get stopping)) && not (cfg.until_idle && queue_drained ())
      in
      (* Woken by a worker's exit, a submission or a signal; otherwise
         at the supervisor's liveness cadence. *)
      while running () do
        locked (fun () ->
            Procs.tick sup;
            (* Merge campaigns whose shards all reached a terminal
               state. *)
            finish_ready_jobs ~now:(Unix.gettimeofday ()) ());
        if running () then Procs.wait sup
      done;
      (* The HTTP face stops first: once the supervisor has closed its
         wake pipe, no /submit may be left to write into it.  No
         requeue events are written on stop — the next start's
         reconciliation revokes the leases, which keeps "crash" and
         "orderly stop" on the same recovery path. *)
      Httpd.stop server;
      Procs.stop sup;
      (* Degraded/failed campaigns surface in the drain exit code with
         the same semantics as a degraded campaign run. *)
      if
        cfg.until_idle && queue_drained ()
        && locked (fun () ->
               List.exists
                 (fun (j : Queue.job) -> j.finished <> Some "done")
                 !st.Queue.jobs)
      then Exec.exit_degraded
      else 0
