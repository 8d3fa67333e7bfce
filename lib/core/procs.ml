(* The worker supervisor of the [gpuwmm serve] daemon.

   Local parallelism is the in-process domain pool ([Exec.Parallel]);
   the daemon alone runs campaigns as worker processes, because a
   process is what can be isolated: a leased shard whose worker
   crashes, wedges or overruns its lease can be killed, requeued and
   resumed from its ledger prefix while the rest of the campaign runs
   on.  The CLI re-executes itself once per shard ([--shard k/N]), each
   worker a plain single-domain run writing its own shard ledger, and
   the daemon merges the ledgers afterwards.  This module owns the
   mechanics — spawning, reaping, liveness, verification and bounded
   crash recovery — using nothing beyond stdlib [Unix].

   Why this is safe with domains: [Unix.create_process_env] forks and
   execs immediately, so the child never runs OCaml code in the forked
   image (fork without exec is unsafe once domains have been spawned). *)

(* OCaml numbers the portable signals with internal negative codes
   (Sys.sigkill is -7); translate to the numbers people grep dmesg and
   `kill -l` for before they reach a log line.  Signals 1-15 have the
   same numbers everywhere; SIGCHLD/SIGCONT/SIGSTOP/SIGTSTP follow the
   Linux x86-64 table (17/18/19/20) and map differently on macOS/BSD
   (e.g. SIGCHLD is 20 there) — we only deploy on Linux. *)
let posix_signal s =
  if s >= 0 then s
  else if s = Sys.sighup then 1
  else if s = Sys.sigint then 2
  else if s = Sys.sigquit then 3
  else if s = Sys.sigill then 4
  else if s = Sys.sigabrt then 6
  else if s = Sys.sigfpe then 8
  else if s = Sys.sigkill then 9
  else if s = Sys.sigusr1 then 10
  else if s = Sys.sigsegv then 11
  else if s = Sys.sigusr2 then 12
  else if s = Sys.sigpipe then 13
  else if s = Sys.sigalrm then 14
  else if s = Sys.sigterm then 15
  else if s = Sys.sigchld then 17
  else if s = Sys.sigcont then 18
  else if s = Sys.sigstop then 19
  else if s = Sys.sigtstp then 20
  else s

let describe_exit = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" (posix_signal s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" (posix_signal s)

(* ------------------------------------------------------------------ *)
(* The lease loop                                                       *)

type verdict = Whole of { degraded : bool } | Prefix | Unusable

(* Fail-closed shard completeness: a shard counts as whole only when its
   ledger loads, passes the same validation `--resume` would apply and
   carries a footer (interrupted runs have none).  A crashed worker
   resumes from a prefix only under the same validation — a
   half-written header or a foreign file means a fresh start, not a
   wedged respawn loop. *)
let check_ledger ~campaign ~seed ~grid ~k ~n path =
  match Runlog.load path with
  | Error _ -> Unusable
  | Ok l -> (
    match
      Runlog.validate_resume
        ~shard:(Shard.to_string (Shard.make ~k ~n ()))
        l ~path ~campaign ~seed ~grid
    with
    | Error _ -> Unusable
    | Ok () -> (
      match l.Runlog.footer with
      | Some f -> Whole { degraded = f.Runlog.quarantined > 0 }
      | None -> Prefix))

type shard = { argv : string list; ledger : string; check : unit -> verdict }

(* A live worker.  Its stdin is the write end of a pipe whose read end
   stays here: the pipe reads EOF once the worker (and anything that
   inherited its stdin) has exited, which wakes [wait] without a poll.
   Workers never touch stdin, so nothing can block or raise SIGPIPE. *)
type child = {
  pid : int;
  exit_r : Unix.file_descr;
  mutable eof_at : float option;  (* when [exit_r] read EOF *)
}

type t = {
  exe : string;
  log : string -> unit;
  max_workers : int;
  lease_s : float;
  backoff_base_s : float;
  state : unit -> Queue.state;
  emit : Queue.event -> unit;
  shard : Queue.spec -> int -> shard;
  (* The worker per (job id, shard) lease owned by THIS process.  Leases
     journalled by a previous daemon life are not ours to waitpid. *)
  children : (string * int, child) Hashtbl.t;
  devnull : Unix.file_descr;
  (* Self-pipe: [wake] writes a byte, [wait] selects on the read end. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  closed : bool Atomic.t;
}

let default_attempts = 3
let default_backoff_base_s = 0.5

(* Liveness cadence: lease deadlines, heartbeat staleness, backoff gates
   and workers that die without an EOF are noticed at this step. *)
let cadence_s = 0.1

(* A worker's pipe reads EOF a few milliseconds before waitpid can reap
   it; until then it is re-checked at this step rather than the
   cadence.  A worker still unreaped a cadence after its EOF (it closed
   its own stdin) falls back to the cadence. *)
let recheck_s = 0.001

let create ?(exe = Sys.executable_name) ?(log = ignore) ~max_workers ~lease_s
    ~backoff_base_s ~state ~emit shard =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { exe; log; max_workers; lease_s; backoff_base_s; state; emit; shard;
    children = Hashtbl.create 16;
    devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0;
    wake_r; wake_w; closed = Atomic.make false }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Forget a worker once it has been reaped or forced: only then may its
   pipe's descriptor number be reused. *)
let release t key =
  match Hashtbl.find_opt t.children key with
  | Some c ->
    Hashtbl.remove t.children key;
    close_fd c.exit_r
  | None -> ()

let shard_name (spec : Queue.spec) k =
  Shard.to_string (Shard.make ~k ~n:spec.workers ())

let fail_shard t ~now (spec : Queue.spec) k ~attempt ~reason =
  if attempt >= spec.max_attempts then begin
    t.log
      (Printf.sprintf "job %s shard %s quarantined after %d attempt(s): %s"
         spec.id (shard_name spec k) attempt reason);
    t.emit (Queue.Quarantined { t = now; id = spec.id; shard = k; reason })
  end
  else begin
    let backoff =
      Queue.backoff_s ~base:t.backoff_base_s
        ~seed:(Gpusim.Rng.subseed spec.seed k)
        ~attempt
    in
    t.log
      (Printf.sprintf "job %s shard %s failed (%s); retry %d/%d in %.1fs"
         spec.id (shard_name spec k) reason attempt (spec.max_attempts - 1)
         backoff);
    t.emit
      (Queue.Requeued
         { t = now; id = spec.id; shard = k; attempt; reason;
           not_before = now +. backoff })
  end

let settle t ~now (spec : Queue.spec) k ~attempt status =
  release t (spec.id, k);
  let fail = fail_shard t ~now spec k ~attempt in
  match status with
  | Unix.WEXITED 0 -> (
    (* Trust but verify: exit 0 with an incomplete ledger (disk full,
       torn footer) must not mark the shard done. *)
    match (t.shard spec k).check () with
    | Whole { degraded } ->
      t.emit (Queue.Shard_done { t = now; id = spec.id; shard = k; degraded })
    | Prefix | Unusable -> fail ~reason:"exited 0 but ledger incomplete")
  | Unix.WEXITED c when c = Exec.exit_degraded ->
    (* Degraded-but-whole: quarantined jobs inside, ledger mergeable. *)
    t.emit
      (Queue.Shard_done { t = now; id = spec.id; shard = k; degraded = true })
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
    fail ~reason:(describe_exit status)

let force pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_lease t ~now spec k ~pid ~attempt ~reason =
  force pid;
  release t (spec.Queue.id, k);
  fail_shard t ~now spec k ~attempt ~reason

(* Heartbeat staleness as a second liveness signal: catches a worker
   that is alive for waitpid but wedged.  Guarded to real timestamps —
   deterministic-mode beats carry t = 0 and would always classify Dead —
   and to the leased pid, so a stale stream from a previous attempt is
   not charged to this one. *)
let heartbeat_dead ~now ~pid ledger =
  match Heartbeat.latest (Heartbeat.hb_path ledger) with
  | Some r ->
    r.Heartbeat.t > 0.0 && r.Heartbeat.pid = pid
    && Heartbeat.classify ~now r = Heartbeat.Dead
  | None -> false

let watch t ~now (id, k) { pid; _ } =
  (* A worker whose lease the queue no longer records has nothing left
     to do: force it so its pipe can close. *)
  let orphan () =
    force pid;
    release t (id, k)
  in
  match Queue.find (t.state ()) id with
  | None -> orphan ()
  | Some job -> (
    match Queue.shard_get job k with
    | Some (Queue.Leased { attempt; deadline; _ }) -> (
      let spec = job.spec in
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if now > deadline then
          kill_lease t ~now spec k ~pid ~attempt
            ~reason:(Printf.sprintf "lease expired after %.0fs" t.lease_s)
        else if heartbeat_dead ~now ~pid (t.shard spec k).ledger then
          kill_lease t ~now spec k ~pid ~attempt ~reason:"heartbeat dead"
      | _, status -> settle t ~now spec k ~attempt status
      | exception Unix.Unix_error (e, _, _) ->
        release t (id, k);
        fail_shard t ~now spec k ~attempt
          ~reason:("waitpid: " ^ Unix.error_message e))
    | _ -> orphan ())

let spawn t ~now (spec : Queue.spec) k ~attempt (sh : shard) ~resume =
  let argv = sh.argv @ if resume then [ "--resume"; sh.ledger ] else [] in
  let env = Unix.environment () in
  let env =
    (* attempt > 1 means this lease follows at least one failure; stamp
       the count so the worker's heartbeats carry it and `gpuwmm
       status` shows which shards crashed without access to us. *)
    if attempt > 1 then
      Array.append env [| Printf.sprintf "GPUWMM_RESPAWN=%d" (attempt - 1) |]
    else env
  in
  let exit_r, exit_w = Unix.pipe ~cloexec:true () in
  match
    Fun.protect
      ~finally:(fun () -> close_fd exit_w)
      (fun () ->
        Unix.create_process_env t.exe (Array.of_list argv) env exit_w
          t.devnull t.devnull)
  with
  | pid ->
    Hashtbl.replace t.children (spec.id, k) { pid; exit_r; eof_at = None };
    t.log
      (Printf.sprintf "job %s shard %s leased to pid %d (attempt %d/%d)"
         spec.id (shard_name spec k) pid attempt spec.max_attempts);
    t.emit
      (Queue.Leased
         { t = now; id = spec.id; shard = k; pid; attempt;
           deadline = now +. t.lease_s })
  | exception Unix.Unix_error (e, _, _) ->
    close_fd exit_r;
    fail_shard t ~now spec k ~attempt
      ~reason:("spawn failed: " ^ Unix.error_message e)

let tick t =
  let now = Unix.gettimeofday () in
  Hashtbl.iter (watch t ~now) (Hashtbl.copy t.children);
  let rec assign () =
    if Hashtbl.length t.children < t.max_workers then
      match Queue.next_lease ~now (t.state ()) with
      | None -> ()
      | Some (job, k) ->
        let spec = job.spec in
        let sh = t.shard spec k in
        let attempt =
          match Queue.shard_get job k with
          | Some (Queue.Pending { attempt; _ }) -> attempt + 1
          | _ -> 1
        in
        (* Only a retried shard's ledger is consulted: it may already
           be whole (a crash after the footer landed) or hold a prefix
           worth resuming.  A first attempt always starts fresh. *)
        (match if attempt > 1 then sh.check () else Unusable with
        | Whole { degraded } ->
          t.emit (Queue.Shard_done { t = now; id = spec.id; shard = k; degraded })
        | v -> spawn t ~now spec k ~attempt sh ~resume:(v = Prefix));
        assign ()
  in
  assign ()

(* Block until something may need the loop: a worker's pipe reads EOF
   (it is exiting; [tick]'s waitpid stays the judge), [wake] is called,
   or the cadence elapses.  An EOF'd pipe leaves the select set, and
   its worker is re-checked every [recheck_s] until reaped. *)
let wait t =
  let now = Unix.gettimeofday () in
  let watched, reaping =
    Hashtbl.fold
      (fun _ c (watched, reaping) ->
        match c.eof_at with
        | None -> (c :: watched, reaping)
        | Some t0 -> (watched, reaping || now -. t0 < cadence_s))
      t.children ([], false)
  in
  let fds = t.wake_r :: List.map (fun c -> c.exit_r) watched in
  let buf = Bytes.create 64 in
  let read fd = Unix.read fd buf 0 (Bytes.length buf) in
  match Unix.select fds [] [] (if reaping then recheck_s else cadence_s) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    (* The wake end is non-blocking: drain it until EAGAIN. *)
    if List.mem t.wake_r ready then
      (try while read t.wake_r > 0 do () done with Unix.Unix_error _ -> ());
    List.iter
      (fun c ->
        if List.mem c.exit_r ready then
          match read c.exit_r with
          | 0 -> c.eof_at <- Some (Unix.gettimeofday ())
          | _ | (exception Unix.Unix_error _) -> ())
      watched

let wake t =
  if not (Atomic.get t.closed) then
    try ignore (Unix.single_write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ()

(* Graceful stop: SIGTERM lets the workers' own handlers flush a
   resumable ledger prefix and a final heartbeat; stragglers are forced
   after 5 s.  The self-pipe closes last, and [closed] keeps a late
   [wake] from writing into a reused descriptor number. *)
let stop t =
  if not (Atomic.get t.closed) then begin
    let workers () = List.of_seq (Hashtbl.to_seq t.children) in
    if Hashtbl.length t.children > 0 then
      t.log
        (Printf.sprintf "stopping: signalling %d worker(s)"
           (Hashtbl.length t.children));
    List.iter
      (fun (_, c) ->
        try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ())
      (workers ());
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec drain () =
      List.iter
        (fun (key, c) ->
          match Unix.waitpid [ Unix.WNOHANG ] c.pid with
          | 0, _ -> ()
          | _ | (exception Unix.Unix_error _) -> release t key)
        (workers ());
      if Hashtbl.length t.children > 0 then
        if Unix.gettimeofday () < deadline then begin
          wait t;
          drain ()
        end
        else
          List.iter
            (fun (key, c) ->
              force c.pid;
              release t key)
            (workers ())
    in
    drain ();
    Atomic.set t.closed true;
    List.iter close_fd [ t.wake_r; t.wake_w; t.devnull ]
  end
