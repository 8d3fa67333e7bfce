type backend = Serial | Parallel of int

let max_jobs = 512

let clamp_jobs ?(warn = true) n =
  let clamped = Int.max 1 (Int.min max_jobs n) in
  if clamped <> n && warn then
    Logs.warn (fun m ->
        m "jobs value %d clamped to %d (valid range 1..%d)" n clamped max_jobs);
  clamped

let backend_of_jobs n =
  if n <= 1 then Serial else Parallel (clamp_jobs ~warn:false n)

let domains_of_backend = function Serial -> 1 | Parallel n -> Int.max 1 n

let default_jobs () = Domain.recommended_domain_count ()

type 'a job = { index : int; seed : int; payload : 'a }

let plan ~seed payloads =
  List.mapi
    (fun index payload ->
      { index; seed = Gpusim.Rng.subseed seed index; payload })
    payloads

(* ------------------------------------------------------------------ *)
(* Supervision: timeouts, retries, quarantine                           *)

type supervision = {
  timeout_s : float option;
  retries : int;
  keep_going : bool;
  faults : Fault.plan option;
}

let supervision ?timeout_s ?(retries = 0) ?(keep_going = false) ?faults () =
  (* A non-finite timeout is refused: [now +. nan] never passes. *)
  (match timeout_s with
  | Some t when not (t > 0.0 && Float.is_finite t) ->
    invalid_arg "Exec.supervision: timeout must be finite and > 0"
  | Some _ | None -> ());
  if retries < 0 then invalid_arg "Exec.supervision: negative retries";
  { timeout_s; retries; keep_going; faults }

type failure = {
  f_label : string;
  f_index : int;
  f_seed : int;
  f_attempts : int;
  f_reason : string;
  f_timed_out : bool;
}

exception Job_failed of failure

let () =
  Printexc.register_printer (function
    | Job_failed f ->
      Some
        (Printf.sprintf "job %d of %s failed after %d attempt(s): %s"
           f.f_index f.f_label f.f_attempts f.f_reason)
    | _ -> None)

exception Timed_out

(* Graceful interruption: the CLI's SIGTERM/SIGINT handlers raise this
   (carrying the POSIX signal number) so an in-flight campaign unwinds
   through the normal abort path — ledger prefix flushed and resumable,
   heartbeat final beat, HTTP server stopped — instead of dying
   mid-write.  [attempt_once] re-raises it rather than treating it as a
   retryable attempt failure: an operator's stop must never be
   converted into "try the job again". *)
exception Interrupted of int

let () =
  Printexc.register_printer (function
    | Interrupted signum ->
      Some (Printf.sprintf "interrupted by signal %d" signum)
    | _ -> None)

(* Cooperative cancellation: domains cannot be killed, so each supervised
   attempt keeps its absolute deadline in a domain-local cell and the
   worker checks the clock itself at its poll points.  A nested attempt
   on the same domain swaps its own deadline in and puts its caller's
   back when it ends. *)
type cell = { mutable deadline : float }  (* absolute; infinity = none *)

let deadline_key = Domain.DLS.new_key (fun () -> { deadline = infinity })

let poll () =
  let dl = (Domain.DLS.get deadline_key).deadline in
  if dl < infinity && Unix.gettimeofday () > dl then raise Timed_out

let supervision_hook : supervision option Atomic.t = Atomic.make None

let sup_mu = Mutex.create ()
let quarantine_log : failure list ref = ref []
let retried_count = Atomic.make 0

let note_quarantine fl =
  Mutex.lock sup_mu;
  quarantine_log := fl :: !quarantine_log;
  Mutex.unlock sup_mu

type summary = { retried : int; quarantined : failure list }

let exit_degraded = 3
let exit_failed = 4

(* Non-draining view for the heartbeat emitter: the CLI's end-of-campaign
   [drain_summary] must still see everything. *)
let summary_counts () =
  Mutex.lock sup_mu;
  let q = List.length !quarantine_log in
  Mutex.unlock sup_mu;
  (Atomic.get retried_count, q)

let drain_summary () =
  Mutex.lock sup_mu;
  let q = !quarantine_log in
  quarantine_log := [];
  Mutex.unlock sup_mu;
  let retried = Atomic.exchange retried_count 0 in
  { retried;
    quarantined =
      List.sort
        (fun a b ->
          match compare a.f_label b.f_label with
          | 0 -> compare a.f_index b.f_index
          | c -> c)
        q }

let set_supervision s =
  Atomic.set supervision_hook s;
  (* The simulator polls for cancellation only while a timeout is armed;
     otherwise the hot loop stays hook-free. *)
  Gpusim.Sim.set_poll_hook
    (match s with Some { timeout_s = Some _; _ } -> Some poll | _ -> None);
  ignore (drain_summary ())

(* Arm this domain's cell for one attempt; the displaced deadline goes
   back with [end_attempt]. *)
let begin_attempt timeout_s =
  let cell = Domain.DLS.get deadline_key in
  let outer = cell.deadline in
  cell.deadline <-
    (match timeout_s with
    | Some t -> Unix.gettimeofday () +. t
    | None -> infinity);
  outer

let end_attempt outer = (Domain.DLS.get deadline_key).deadline <- outer

(* An injected hang burns scheduler time at poll points until its
   attempt's deadline passes; it is only ever entered with a timeout
   armed (without one it degrades to a raise so chaos runs can never
   wedge the process). *)
let rec injected_hang () =
  poll ();
  Domain.cpu_relax ();
  injected_hang ()

let attempt_once ~sup ~index ~seed ~attempt ~compute =
  let fault =
    match sup.faults with
    | Some p -> Fault.at p ~index ~attempt
    | None -> None
  in
  let outer = begin_attempt sup.timeout_s in
  match
    Fun.protect ~finally:(fun () -> end_attempt outer) @@ fun () ->
    (match fault with
    | Some Fault.Raise -> raise (Fault.Injected "job crash")
    | Some Fault.Hang ->
      if sup.timeout_s = None then
        raise (Fault.Injected "hang (no timeout armed to cancel it)")
      else injected_hang ()
    | Some (Fault.Corrupt | Fault.Ledger_fail) | None -> ());
    let eff_seed =
      match fault with Some Fault.Corrupt -> seed lxor 1 | _ -> seed
    in
    let v = compute ~seed:eff_seed in
    (match fault with
    | Some Fault.Ledger_fail -> raise (Fault.Injected "ledger write failure")
    | _ -> ());
    v
  with
  | v -> Ok v
  | exception Timed_out ->
    Error
      ( Printf.sprintf "timed out after %gs"
          (Option.value ~default:0.0 sup.timeout_s),
        true )
  | exception (Interrupted _ as e) -> raise e
  | exception e -> Error (Printexc.to_string e, false)

(* The bounded retry loop.  Retries are immediate and reuse the job's
   own planned seed, so a successful retry reproduces the fault-free
   result bit for bit. *)
let supervise ~sup ~index ~seed ~compute =
  let rec go attempt =
    match attempt_once ~sup ~index ~seed ~attempt ~compute with
    | Ok v -> Ok (v, attempt + 1)
    | Error (reason, timed_out) ->
      if attempt < sup.retries then begin
        Atomic.incr retried_count;
        go (attempt + 1)
      end
      else Error (reason, timed_out, attempt + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Progress reporting                                                   *)

type reporter = {
  line : string -> unit;
  finished : unit -> unit;
}

let progress_hook : reporter option Atomic.t = Atomic.make None

let set_progress h = Atomic.set progress_hook h

let info msg =
  match Atomic.get progress_hook with Some r -> r.line msg | None -> ()

let format_eta seconds =
  if not (Float.is_finite seconds) || seconds < 0.0 then "-"
  else
    let s = int_of_float (Float.round seconds) in
    if s >= 3600 then Printf.sprintf "%dh%02dm" (s / 3600) (s mod 3600 / 60)
    else Printf.sprintf "%02d:%02d" (s / 60) (s mod 60)

(* The published progress of the newest campaign phase in this process:
   the cross-process observability channel.  The ticker keeps it fresh
   (about once a second) even when no progress reporter is installed, so
   quiet shard workers still expose live state to their heartbeat
   emitter and the /status endpoint.  Under a shard journal the
   counts are shard-local: placeholder-skipped jobs are excluded from
   both [p_done] and [p_total], so summing worker snapshots yields the
   campaign plan's totals. *)
type progress = {
  p_label : string;
  p_total : int;
  p_done : int;
  p_cached : int;  (** jobs replayed from a resume cache *)
  p_errors : int;
  p_rate : float;  (** EWMA jobs/s; 0.0 until warm *)
  p_eta_s : float option;
  p_updated : float;  (** wall clock of the last update *)
}

let progress_cell : progress option Atomic.t = Atomic.make None

let progress () = Atomic.get progress_cell

(* An ETA needs a warm EWMA *and* at least two live (non-cached)
   completions: the first inter-tick sample extrapolates a whole
   campaign from a single job, which produced wild initial estimates on
   slow campaigns. *)
let eta_of ~live_done ~remaining ~ewma =
  if live_done >= 2 && ewma > 0.0 then
    Some (float_of_int remaining /. ewma)
  else None

(* A rate-limited per-campaign reporter, safe to call from any worker
   domain.  Throttling state lives behind a mutex; the job counter the
   callers pass in is maintained with atomics by the executor.  The
   line carries completed/total jobs, live throughput, the error rate
   over all completed executions when the campaign's codec can count
   errors, and an ETA from an exponentially weighted moving average of
   the inter-tick completion rate.  [cached] jobs (replayed from a
   resume ledger) are excluded from the throughput and ETA basis, and
   [skipped] jobs (shard placeholders) from the displayed counts
   entirely — a shard worker reports only the slice it owns.  Each
   tick also refreshes {!progress_cell}, with or without a reporter. *)
let make_ticker ~label ~execs_per_job ~total ~cached ~skipped =
  match label with
  | None -> fun _ _ -> ()
  | Some label ->
    let rep = Atomic.get progress_hook in
    let t0 = Unix.gettimeofday () in
    (* Publish the campaign's shape immediately: observers (heartbeats,
       /status) see the planned total from the first beat, not only
       after the first job lands — jobs can take many seconds. *)
    Atomic.set progress_cell
      (Some
         { p_label = label; p_total = total - skipped; p_done = cached;
           p_cached = cached; p_errors = 0; p_rate = 0.0; p_eta_s = None;
           p_updated = t0 });
    let mu = Mutex.create () in
    let last = ref t0 in
    let last_done = ref (cached + skipped) in
    let ewma = ref 0.0 in
    fun jobs_done errors ->
      let now = Unix.gettimeofday () in
      let final = jobs_done = total in
      if final || now -. !last >= 1.0 then begin
        Mutex.lock mu;
        if final || now -. !last >= 1.0 then begin
          let dt = now -. !last in
          if dt > 0.0 && jobs_done > !last_done then begin
            let inst = float_of_int (jobs_done - !last_done) /. dt in
            ewma := if !ewma = 0.0 then inst else (0.3 *. inst) +. (0.7 *. !ewma)
          end;
          last := now;
          last_done := jobs_done;
          let elapsed = now -. t0 in
          (* Shard-local view: placeholders are not work. *)
          let own_done = jobs_done - skipped in
          let own_total = total - skipped in
          let live_done = own_done - cached in
          let live_execs = live_done * execs_per_job in
          let rate =
            if elapsed > 0.0 then float_of_int live_execs /. elapsed else 0.0
          in
          let eta =
            eta_of ~live_done ~remaining:(own_total - own_done) ~ewma:!ewma
          in
          Atomic.set progress_cell
            (Some
               { p_label = label; p_total = own_total; p_done = own_done;
                 p_cached = cached;
                 p_errors = (match errors with Some e -> e | None -> 0);
                 p_rate = !ewma; p_eta_s = eta; p_updated = now });
          match rep with
          | None -> ()
          | Some rep ->
            let err =
              match errors with
              | None -> ""
              | Some e ->
                let execs = own_done * execs_per_job in
                if execs = 0 then ""
                else
                  Printf.sprintf " | err %.2f%%"
                    (100.0 *. float_of_int e /. float_of_int execs)
            in
            let tail =
              if final then Printf.sprintf " | %.1fs" elapsed
              else
                Printf.sprintf " | ETA %s"
                  (format_eta
                     (match eta with Some s -> s | None -> infinity))
            in
            rep.line
              (Printf.sprintf "%s: %d/%d jobs (%.0f execs/s)%s%s" label
                 own_done own_total rate err tail);
            if final then rep.finished ()
        end;
        Mutex.unlock mu
      end

(* ------------------------------------------------------------------ *)
(* GC settings                                                          *)

(* Every backend runs at the runtime's default GC settings: now that
   the simulator's tick allocates little, a 16 MiB minor heap no longer
   speeds up the measured campaigns and costs resident memory in every
   domain (DESIGN.md §6a records what was measured, and the two
   micro-benchmarks it still helped).  Kept for callers outside the
   library. *)
let tune_gc () = ()

(* ------------------------------------------------------------------ *)
(* The worker pool                                                      *)

(* Run [process ~worker i] for every i in [0, len) on [domains] domains
   (the caller is one of them; it is worker 0, helpers are 1..).
   Indexes are handed out in chunks from a shared atomic counter; [stop]
   lets callers abort early (used by [for_all]).  The first exception is
   captured and re-raised on the calling domain after every worker has
   drained.  Helpers are spawned until the runtime refuses one: OCaml
   caps a process's live domains (128 in 5.1) and the heartbeat and
   HTTP domains count against that cap.  No result depends on
   which worker ran a job, so a smaller pool changes only the speed.
   With one domain no helper is spawned and the caller runs every index
   in order. *)
let pool_iter ~domains ~stop ~process len =
  let next = Atomic.make 0 in
  let error = Atomic.make None in
  let chunk = Int.max 1 (len / (domains * 8)) in
  let worker w =
    let rec loop () =
      if Atomic.get error = None && not (stop ()) then begin
        let start = Atomic.fetch_and_add next chunk in
        if start < len then begin
          (try
             let finish = Int.min len (start + chunk) in
             for i = start to finish - 1 do
               if Atomic.get error = None && not (stop ()) then
                 process ~worker:w i
             done
           with e -> ignore (Atomic.compare_and_set error None (Some e)));
          loop ()
        end
      end
    in
    loop ()
  in
  let rec spawn w helpers =
    if w >= domains then helpers
    else
      match Domain.spawn (fun () -> worker w) with
      | d -> spawn (w + 1) (d :: helpers)
      | exception Failure _ ->
        Logs.info (fun m ->
            m "runtime domain limit: the pool runs %d of %d domains" w domains);
        helpers
  in
  let helpers = spawn 1 [] in
  worker 0;
  List.iter Domain.join helpers;
  match Atomic.get error with Some e -> raise e | None -> ()

(* Wrap a job function with telemetry: every completed job bumps the
   exec counters/histograms, and — when span recording is on — leaves a
   span with its schedule (worker slot, queue wait, run time).  None of
   this touches the job's result, so the backend determinism guarantee
   is unaffected. *)
let instrumented ~label ~f ~queued_at =
  let jobs_c = Telemetry.counter "exec.jobs" in
  let run_h = Telemetry.histogram "exec.run_seconds" in
  let wait_h = Telemetry.histogram "exec.queue_wait_seconds" in
  fun ~worker j ->
    let started_at = Unix.gettimeofday () in
    let r = f j in
    let ended_at = Unix.gettimeofday () in
    Telemetry.incr jobs_c;
    Telemetry.observe run_h (ended_at -. started_at);
    Telemetry.observe wait_h (started_at -. queued_at);
    if Telemetry.spans_enabled () then
      Telemetry.record_span
        { Telemetry.label; index = j.index; worker; queued_at; started_at;
          ended_at };
    (r, ended_at -. started_at)

(* The one execution loop behind [map], [run] and [for_all].  [Serial]
   is the pool with the calling domain as its only worker.  Each job is
   instrumented and, under an installed supervision policy, runs as a
   bounded sequence of self-timed attempts.  [on_result k v]
   receives the value of [jobs.(k)] with its run time and attempts; a
   job whose attempts are exhausted goes to [on_quarantine] when the
   policy says [keep_going] and the caller gave one, and raises
   {!Job_failed} otherwise.  The callbacks run on worker domains. *)
let execute ~backend ~label ?(stop = fun () -> false) ?on_quarantine ~f
    ~on_result jobs =
  let len = Array.length jobs in
  if len > 0 then begin
    let sup = Atomic.get supervision_hook in
    let domains = Int.min (domains_of_backend backend) len in
    let exec = instrumented ~label ~f ~queued_at:(Unix.gettimeofday ()) in
    let process ~worker k =
      let j = jobs.(k) in
      match sup with
      | None ->
        let v, duration_s = exec ~worker j in
        on_result k v ~duration_s ~attempts:1
      | Some s -> (
        let t0 = Unix.gettimeofday () in
        match
          supervise ~sup:s ~index:j.index ~seed:j.seed
            ~compute:(fun ~seed -> exec ~worker { j with seed })
        with
        | Ok ((v, duration_s), attempts) -> on_result k v ~duration_s ~attempts
        | Error (reason, timed_out, attempts) -> (
          let fl =
            { f_label = label; f_index = j.index; f_seed = j.seed;
              f_attempts = attempts; f_reason = reason;
              f_timed_out = timed_out }
          in
          match on_quarantine with
          | Some q when s.keep_going ->
            note_quarantine fl;
            q k fl ~duration_s:(Unix.gettimeofday () -. t0)
          | Some _ | None -> raise (Job_failed fl)))
    in
    pool_iter ~domains ~stop ~process len
  end

let results_list results =
  Array.to_list
    (Array.map (function Some v -> v | None -> assert false) results)

let map ?(backend = Serial) ?label ?(execs_per_job = 1) ~f jobs =
  let arr = Array.of_list jobs in
  let len = Array.length arr in
  let results = Array.make len None in
  let tick = make_ticker ~label ~execs_per_job ~total:len ~cached:0 ~skipped:0 in
  let completed = Atomic.make 0 in
  execute ~backend ~label:(Option.value label ~default:"map") ~f
    ~on_result:(fun k v ~duration_s:_ ~attempts:_ ->
      results.(k) <- Some v;
      tick (1 + Atomic.fetch_and_add completed 1) None)
    arr;
  results_list results

let run ?(backend = Serial) ?label ?(execs_per_job = 1) ?journal ?codec
    ?quarantine ?shard_placeholder ~seed ~f payloads =
  let jobs = plan ~seed payloads in
  let arr = Array.of_list jobs in
  let len = Array.length arr in
  let results = Array.make len None in
  let errors = Atomic.make 0 in
  let errors_so_far () =
    if Option.is_some codec then Some (Atomic.get errors) else None
  in
  (* A k/N shard journal executes and journals only the jobs its shard
     owns, and [Runlog] writes them in the shard's own rank order; the
     caller's reduce sees [shard_placeholder] values in the other slots,
     and the real ones are reassembled from the sibling shards at merge
     time.  A campaign without a placeholder has cells that depend on
     each other, so it cannot shard. *)
  let skipped = ref 0 in
  (match (Option.bind journal (fun jn -> jn.Runlog.shard), shard_placeholder)
   with
  | None, _ -> ()
  | Some _, None ->
    invalid_arg "Exec.run: a shard journal requires ~shard_placeholder"
  | Some sh, Some ph ->
    Array.iter
      (fun j ->
        if not (Shard.owns sh ~total:len j.index) then begin
          results.(j.index) <- Some (ph j.payload);
          incr skipped
        end)
      arr);
  (* Resolve cached jobs from the resume ledger up front: their results
     are replayed into the new ledger verbatim and their executions are
     skipped entirely. *)
  let cached =
    match (journal, codec) with
    | Some jn, Some c ->
      Array.fold_left
        (fun n j ->
          if Option.is_some results.(j.index) then n
          else
            match
              Runlog.cached_value jn ~codec:c ~index:j.index ~seed:j.seed
            with
            | Some (v, r) ->
              results.(j.index) <- Some v;
              ignore (Atomic.fetch_and_add errors r.Runlog.errors);
              Runlog.replay jn r;
              n + 1
            | None -> n)
        0 arr
    | Some _, None -> invalid_arg "Exec.run: ~journal requires ~codec"
    | None, _ -> 0
  in
  (match label with
  | Some l when cached > 0 ->
    info (Printf.sprintf "%s: resuming with %d/%d cached job(s)" l cached len)
  | _ -> ());
  let tick =
    make_ticker ~label ~execs_per_job ~total:len ~cached ~skipped:!skipped
  in
  let completed = Atomic.make (cached + !skipped) in
  let fresh =
    Array.of_list (List.filter (fun j -> Option.is_none results.(j.index)) jobs)
  in
  (* A fully cached resume starts no pool and never calls [f]; only the
     final progress tick is emitted. *)
  if Array.length fresh = 0 && len > 0 then tick len (errors_so_far ());
  let errors_of v =
    match codec with Some c -> c.Runlog.errors_of v | None -> 0
  in
  let finish j v errs =
    results.(j.index) <- Some v;
    ignore (Atomic.fetch_and_add errors errs);
    tick (1 + Atomic.fetch_and_add completed 1) (errors_so_far ())
  in
  execute ~backend ~label:(Option.value label ~default:"run")
    ~f:(fun j -> f ~seed:j.seed j.payload)
    ~on_result:(fun k v ~duration_s ~attempts ->
      let j = fresh.(k) in
      let errs = errors_of v in
      (match (journal, codec) with
      | Some jn, Some c ->
        Runlog.record jn ~index:j.index ~seed:j.seed ~errors:errs ~duration_s
          ~attempts (Codec.encode c.Runlog.codec v)
      | _ -> ());
      finish j v errs)
    ?on_quarantine:
      (Option.map
         (fun q k fl ~duration_s ->
           (* Quarantine the poison job: a failed ledger record keeps the
              plan-order stream whole (and is re-run on resume), the
              caller's fallback value keeps the reduction total. *)
           let j = fresh.(k) in
           Option.iter
             (fun jn ->
               Runlog.record_failure jn ~index:j.index ~seed:j.seed
                 ~attempts:fl.f_attempts ~duration_s fl.f_reason)
             journal;
           let v = q j.payload fl in
           finish j v (errors_of v))
         quarantine)
    fresh;
  results_list results

let for_all ?(backend = Serial) ~seed ~f payloads =
  let failed = Atomic.make false in
  let fail () = Atomic.set failed true in
  execute ~backend ~label:"for_all"
    ~stop:(fun () -> Atomic.get failed)
    ~f:(fun j -> f ~seed:j.seed j.payload)
    ~on_result:(fun _ holds ~duration_s:_ ~attempts:_ ->
      if not holds then fail ())
    (* A quarantined check counts as a failure of the universal property. *)
    ~on_quarantine:(fun _ _ ~duration_s:_ -> fail ())
    (Array.of_list (plan ~seed payloads));
  not (Atomic.get failed)
