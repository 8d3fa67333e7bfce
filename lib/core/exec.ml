type backend = Serial | Parallel of int

let serial = Serial

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

let default_jobs () =
  match Sys.getenv_opt "GPUWMM_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> clamp_jobs n
    | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_backend () = backend_of_jobs (default_jobs ())

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
  (match timeout_s with
  | Some t when t <= 0.0 -> invalid_arg "Exec.supervision: timeout must be > 0"
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

(* Cooperative cancellation: domains cannot be killed, so a watchdog
   domain marks overdue worker slots and the workers abort themselves at
   the next poll point.  Each slot carries an attempt epoch; the watchdog
   records which epoch it cancelled, and [poll] raises only when the
   cancelled epoch is the one still running — a cancellation that arrives
   after the attempt already finished is inert. *)
type slot = {
  epoch : int Atomic.t;  (* bumped at every attempt start; 0 = idle *)
  deadline : float Atomic.t;  (* absolute; 0.0 = no deadline armed *)
  cancel : int Atomic.t;  (* epoch the watchdog cancelled; 0 = none *)
}

let make_slot () =
  { epoch = Atomic.make 0; deadline = Atomic.make 0.0; cancel = Atomic.make 0 }

let slot_key : slot option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let poll () =
  match Domain.DLS.get slot_key with
  | None -> ()
  | Some s ->
    let e = Atomic.get s.epoch in
    if e > 0 && Atomic.get s.cancel = e then raise Timed_out

let supervision_hook : supervision option Atomic.t = Atomic.make None

let sup_mu = Mutex.create ()
let quarantine_log : failure list ref = ref []
let retried_count = Atomic.make 0

let note_quarantine fl =
  Mutex.lock sup_mu;
  quarantine_log := fl :: !quarantine_log;
  Mutex.unlock sup_mu

type summary = { retried : int; quarantined : failure list }

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

let supervised () = Atomic.get supervision_hook

let with_watchdog ~sup slots body =
  match sup with
  | Some { timeout_s = Some _; _ } when Array.length slots > 0 ->
    let stop = Atomic.make false in
    let dog =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            Unix.sleepf 0.01;
            let now = Unix.gettimeofday () in
            Array.iter
              (fun s ->
                (* Read the epoch before the deadline: if the attempt
                   finishes between the two reads we cancel a stale epoch,
                   which [poll] ignores. *)
                let e = Atomic.get s.epoch in
                let dl = Atomic.get s.deadline in
                if dl > 0.0 && now > dl then Atomic.set s.cancel e)
              slots
          done)
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join dog)
      body
  | _ -> body ()

let begin_attempt slot timeout_s =
  Atomic.incr slot.epoch;
  match timeout_s with
  | Some t -> Atomic.set slot.deadline (Unix.gettimeofday () +. t)
  | None -> ()

let end_attempt slot = Atomic.set slot.deadline 0.0

(* An injected hang burns scheduler time at poll points until the
   watchdog cancels the attempt; it is only ever entered with a timeout
   armed (without one it degrades to a raise so chaos runs can never
   wedge the process). *)
let rec injected_hang () =
  poll ();
  Domain.cpu_relax ();
  injected_hang ()

let attempt_once ~sup ~slot ~index ~seed ~attempt ~compute =
  let fault =
    match sup.faults with
    | Some p -> Fault.at p ~index ~attempt
    | None -> None
  in
  begin_attempt slot sup.timeout_s;
  match
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
  | v ->
    end_attempt slot;
    Ok v
  | exception Timed_out ->
    end_attempt slot;
    Error
      ( Printf.sprintf "timed out after %gs"
          (Option.value ~default:0.0 sup.timeout_s),
        true )
  | exception (Interrupted _ as e) ->
    end_attempt slot;
    raise e
  | exception e ->
    end_attempt slot;
    Error (Printexc.to_string e, false)

(* The bounded retry loop.  Retries are immediate and reuse the job's
   own planned seed, so a successful retry reproduces the fault-free
   result bit for bit. *)
let supervise ~sup ~slot ~index ~seed ~compute =
  let rec go attempt =
    match attempt_once ~sup ~slot ~index ~seed ~attempt ~compute with
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
   emitter and the /status endpoint.  Under an ambient shard the
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

let clear_progress () = Atomic.set progress_cell None

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
   caps a process's live domains (128 in 5.1) and the heartbeat, HTTP
   and watchdog domains count against that cap.  No result depends on
   which worker ran a job, so a smaller pool changes only the speed. *)
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
let instrumented ?label ~f ~queued_at =
  let jobs_c = Telemetry.counter "exec.jobs" in
  let run_h = Telemetry.histogram "exec.run_seconds" in
  let wait_h = Telemetry.histogram "exec.queue_wait_seconds" in
  let label = match label with Some l -> l | None -> "map" in
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

let map ?(backend = Serial) ?label ?(execs_per_job = 1) ~f jobs =
  let arr = Array.of_list jobs in
  let len = Array.length arr in
  let tick = make_ticker ~label ~execs_per_job ~total:len ~cached:0 ~skipped:0 in
  let domains = Int.min (domains_of_backend backend) (Int.max 1 len) in
  let exec = instrumented ?label ~f ~queued_at:(Unix.gettimeofday ()) in
  if domains <= 1 then
    List.mapi
      (fun i j ->
        let r, _ = exec ~worker:0 j in
        tick (i + 1) None;
        r)
      jobs
  else begin
    let results = Array.make len None in
    let completed = Atomic.make 0 in
    pool_iter ~domains
      ~stop:(fun () -> false)
      ~process:(fun ~worker i ->
        let r, _ = exec ~worker arr.(i) in
        results.(i) <- Some r;
        tick (1 + Atomic.fetch_and_add completed 1) None)
      len;
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end

let run ?(backend = Serial) ?label ?(execs_per_job = 1) ?journal ?codec
    ?quarantine ?shard_placeholder ~seed ~f payloads =
  let jobs = plan ~seed payloads in
  let arr = Array.of_list jobs in
  let len = Array.length arr in
  let results = Array.make len None in
  let errors = Atomic.make 0 in
  let count_errors = Option.is_some codec in
  (* Under an ambient k/N shard, only the owned slice of the plan is
     journalled (at its dense shard-local flush rank); with a
     [shard_placeholder] the non-owned jobs are not even executed — the
     driver's reduce sees placeholders there, and the real values are
     reconstructed from the sibling shards at merge time. *)
  let shard = Shard.ambient () in
  let journal_pos j_index =
    match shard with
    | None -> Some None
    | Some sh ->
      if Shard.owns sh ~total:len j_index then
        Some (Some (Shard.rank sh ~total:len j_index))
      else None
  in
  (* Resolve cached jobs from the resume ledger up front: their results
     are replayed into the new ledger verbatim and their executions are
     skipped entirely. *)
  (match (journal, codec) with
  | Some jn, Some c ->
    Array.iter
      (fun j ->
        match Runlog.cached_value jn ~codec:c ~index:j.index ~seed:j.seed with
        | Some (v, r) ->
          results.(j.index) <- Some v;
          ignore (Atomic.fetch_and_add errors r.Runlog.errors);
          (match journal_pos j.index with
          | Some pos -> Runlog.replay ?pos jn r
          | None -> ())
        | None -> ())
      arr
  | Some _, None -> invalid_arg "Exec.run: ~journal requires ~codec"
  | None, _ -> ());
  let cached =
    Array.fold_left
      (fun n r -> if Option.is_some r then n + 1 else n)
      0 results
  in
  (match label with
  | Some l when cached > 0 ->
    info (Printf.sprintf "%s: resuming with %d/%d cached job(s)" l cached len)
  | _ -> ());
  let skipped = ref 0 in
  (match (shard, shard_placeholder) with
  | Some sh, Some ph ->
    Array.iter
      (fun j ->
        if
          (not (Shard.owns sh ~total:len j.index))
          && Option.is_none results.(j.index)
        then begin
          results.(j.index) <- Some (ph j.payload);
          incr skipped
        end)
      arr
  | _ -> ());
  let tick =
    make_ticker ~label ~execs_per_job ~total:len ~cached ~skipped:!skipped
  in
  let completed = Atomic.make (cached + !skipped) in
  let fresh =
    Array.of_list (List.filter (fun j -> Option.is_none results.(j.index)) jobs)
  in
  let exec =
    instrumented ?label
      ~f:(fun j -> f ~seed:j.seed j.payload)
      ~queued_at:(Unix.gettimeofday ())
  in
  let reduce () =
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  in
  let flen = Array.length fresh in
  if flen = 0 then begin
    (* Fully cached resume: a no-op fast path.  No pool, no watchdog, no
       supervision — [f] is never called; only the final progress tick is
       emitted. *)
    if len > 0 then
      tick len (if count_errors then Some (Atomic.get errors) else None);
    reduce ()
  end
  else begin
    let finish_job j v duration_s ~attempts =
      let errs =
        match codec with Some c -> c.Runlog.errors_of v | None -> 0
      in
      (match (journal, journal_pos j.index) with
      | Some jn, Some pos ->
        let c = Option.get codec in
        Runlog.record jn ?pos ~index:j.index ~seed:j.seed ~errors:errs
          ~duration_s ~attempts
          (c.Runlog.encode v)
      | _ -> ());
      results.(j.index) <- Some v;
      if count_errors then ignore (Atomic.fetch_and_add errors errs);
      tick
        (1 + Atomic.fetch_and_add completed 1)
        (if count_errors then Some (Atomic.get errors) else None)
    in
    let sup = Atomic.get supervision_hook in
    let domains = Int.min (domains_of_backend backend) flen in
    let slots =
      match sup with
      | Some _ -> Array.init (Int.max 1 domains) (fun _ -> make_slot ())
      | None -> [||]
    in
    let label_str = match label with Some l -> l | None -> "run" in
    let process ~worker k =
      let j = fresh.(k) in
      match sup with
      | None ->
        let v, duration_s = exec ~worker j in
        finish_job j v duration_s ~attempts:1
      | Some s -> (
        let slot = slots.(worker) in
        Domain.DLS.set slot_key (Some slot);
        let t0 = Unix.gettimeofday () in
        match
          supervise ~sup:s ~slot ~index:j.index ~seed:j.seed
            ~compute:(fun ~seed -> exec ~worker { j with seed })
        with
        | Ok ((v, duration_s), attempts) -> finish_job j v duration_s ~attempts
        | Error (reason, timed_out, attempts) -> (
          let fl =
            { f_label = label_str; f_index = j.index; f_seed = j.seed;
              f_attempts = attempts; f_reason = reason; f_timed_out = timed_out }
          in
          match quarantine with
          | Some q when s.keep_going ->
            (* Quarantine the poison job: a failed ledger record keeps the
               plan-order stream whole (and is re-run on resume), the
               caller's fallback value keeps the reduction total. *)
            note_quarantine fl;
            (match (journal, journal_pos j.index) with
            | Some jn, Some pos ->
              Runlog.record_failure jn ?pos ~index:j.index ~seed:j.seed
                ~attempts
                ~duration_s:(Unix.gettimeofday () -. t0)
                reason
            | _ -> ());
            let v = q j.payload fl in
            results.(j.index) <- Some v;
            if count_errors then
              ignore
                (Atomic.fetch_and_add errors
                   (match codec with
                   | Some c -> c.Runlog.errors_of v
                   | None -> 0));
            tick
              (1 + Atomic.fetch_and_add completed 1)
              (if count_errors then Some (Atomic.get errors) else None)
          | Some _ | None -> raise (Job_failed fl)))
    in
    with_watchdog ~sup slots (fun () ->
        if domains <= 1 then
          for k = 0 to flen - 1 do
            process ~worker:0 k
          done
        else pool_iter ~domains ~stop:(fun () -> false) ~process flen);
    (* The caller domain keeps its DLS across runs; clear the slot so a
       later unsupervised poll can never see a stale cancellation. *)
    if sup <> None then Domain.DLS.set slot_key None;
    reduce ()
  end

let for_all ?(backend = Serial) ~seed ~f payloads =
  let jobs = plan ~seed payloads in
  let njobs = List.length jobs in
  if njobs = 0 then true
  else begin
    let sup = Atomic.get supervision_hook in
    let domains = Int.min (domains_of_backend backend) njobs in
    let slots =
      match sup with
      | Some _ -> Array.init (Int.max 1 domains) (fun _ -> make_slot ())
      | None -> [||]
    in
    let eval ~worker j =
      match sup with
      | None -> f ~seed:j.seed j.payload
      | Some s -> (
        let slot = slots.(worker) in
        Domain.DLS.set slot_key (Some slot);
        match
          supervise ~sup:s ~slot ~index:j.index ~seed:j.seed
            ~compute:(fun ~seed -> f ~seed j.payload)
        with
        | Ok (b, _) -> b
        | Error (reason, timed_out, attempts) ->
          let fl =
            { f_label = "for_all"; f_index = j.index; f_seed = j.seed;
              f_attempts = attempts; f_reason = reason; f_timed_out = timed_out }
          in
          if s.keep_going then begin
            (* Quarantined check: conservatively counted as a failure of
               the universal property. *)
            note_quarantine fl;
            false
          end
          else raise (Job_failed fl))
    in
    let failed = Atomic.make false in
    let body () =
      if domains <= 1 then (
        try
          List.iter
            (fun j ->
              if not (eval ~worker:0 j) then begin
                Atomic.set failed true;
                raise Exit
              end)
            jobs
        with Exit -> ())
      else begin
        let arr = Array.of_list jobs in
        pool_iter ~domains
          ~stop:(fun () -> Atomic.get failed)
          ~process:(fun ~worker i ->
            if not (eval ~worker arr.(i)) then Atomic.set failed true)
          njobs
      end
    in
    with_watchdog ~sup slots body;
    if sup <> None then Domain.DLS.set slot_key None;
    not (Atomic.get failed)
  end
