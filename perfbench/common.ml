(* Shared plumbing of the benchmark harness: run state, process
   hygiene, harness spans, failure accounting and metric output. *)

let now = Unix.gettimeofday

let log fmt = Printf.ksprintf print_endline fmt

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                   *)

(* An operation fails when anything inside it fails; a failure outside
   every operation (set-up, the simulated-statistics check) counts as one
   failed operation of its own. *)
let attempted = ref 0
let failed = ref 0
let in_op = ref false
let op_bad = ref false

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      log "FAILED: %s" msg;
      if !in_op then op_bad := true
      else begin
        incr attempted;
        incr failed
      end)
    fmt

let check_result = function Ok () -> () | Error e -> fail "%s" e

let operation f =
  incr attempted;
  in_op := true;
  op_bad := false;
  Fun.protect
    ~finally:(fun () ->
      if !op_bad then incr failed;
      in_op := false)
    f

(* ------------------------------------------------------------------ *)
(* Files and the state directory                                        *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Reads to end of file, so /proc files (which report length 0) work. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ())

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Everything a run writes lives under .perfbench/ in the working
   directory (the checkout root): the per-run state directory, removed
   when the run ends, and the Chrome traces of traced runs. *)
let root = ".perfbench"

let state_dir = ref ""

let make_state_dir ~workload =
  let d =
    Filename.concat root (Printf.sprintf "run-%s-%d" workload (Unix.getpid ()))
  in
  rm_rf d;
  mkdir_p d;
  state_dir := d;
  d

let in_state name = Filename.concat !state_dir name

(* ------------------------------------------------------------------ *)
(* Processes                                                            *)

(* The gpuwmm CLI, built by the same dune invocation as this harness. *)
let gpuwmm_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "gpuwmm_cli.exe")

let is_gpuwmm_var kv =
  String.length kv >= 7 && String.sub kv 0 7 = "GPUWMM_"

(* The environment children run with: the harness's own, minus every
   GPUWMM_* variable, plus exactly the ones the workload sets. *)
let child_env extra =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (is_gpuwmm_var kv))
          (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) extra))

let spawn ?stdout_path ~env argv =
  let dn = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out =
    match stdout_path with
    | None -> dn
    | Some p -> Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        if out != dn then Unix.close out;
        Unix.close dn)
      (fun () ->
        Unix.create_process_env (List.hd argv) (Array.of_list argv) env dn out
          dn)
  in
  pid

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Run to completion: the exit status and the spawn/exit wall clocks. *)
let run_proc ?stdout_path ~env argv =
  let t0 = now () in
  let pid = spawn ?stdout_path ~env argv in
  let st = waitpid_retry pid in
  (st, t0, now ())

(* Seconds from spawning this harness with [args] to its exit: one
   sample of a workload's one-time set-up in a fresh process. *)
let self_probe args =
  let st, t0, t1 =
    run_proc ~env:(child_env []) (Sys.executable_name :: args)
  in
  if st <> Unix.WEXITED 0 then
    fail "set-up probe %s: %s" (String.concat " " args)
      (match st with
      | Unix.WEXITED c -> Printf.sprintf "exited %d" c
      | _ -> "killed");
  t1 -. t0

(* One sample of the host's current speed (see hostspeed.ml): [width]
   fresh probe processes, built beside this harness, run at once and
   their factors are averaged.  A workload that keeps two cores busy is
   probed on two, so the figure also drops when the host takes a core
   away.  1.0 is the speed of the machine the benchmark was tuned on. *)
let host_speed ~width =
  let probe = Filename.concat (Filename.dirname Sys.executable_name) "hostspeed.exe" in
  let outs = List.init width (fun i -> in_state (Printf.sprintf "hostspeed-%d.out" i)) in
  let pids = List.map (fun out -> spawn ~stdout_path:out ~env:(child_env []) [ probe ]) outs in
  let factors =
    List.map2
      (fun pid out ->
        let st = waitpid_retry pid in
        let f =
          match st, String.split_on_char ' ' (String.trim (read_file out)) with
          | Unix.WEXITED 0, f :: _ -> float_of_string_opt f
          | _ -> None
        in
        Sys.remove out;
        f)
      pids outs
  in
  match List.filter_map (function Some f when f > 0.0 -> Some f | _ -> None) factors with
  | fs when List.length fs = width -> List.fold_left ( +. ) 0.0 fs /. float_of_int width
  | _ -> failwith "host-speed probe failed"

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* SIGTERM, then SIGKILL after [grace] seconds; always reaps. *)
let stop_proc ?(grace = 10.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

(* Poll [f] every [every] seconds until it returns [Some v] or
   [timeout] seconds pass. *)
let poll_until ?(every = 0.002) ~timeout f =
  let deadline = now () +. timeout in
  let rec go () =
    match f () with
    | Some v -> Some v
    | None when now () >= deadline -> None
    | None ->
      Unix.sleepf every;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Harness spans (traced runs only)                                     *)

type span = { name : string; t0 : float; t1 : float }

let tracing = ref false
let spans : span list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> spans := { name; t0; t1 = now () } :: !spans)
      f
  end

let span_total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

let span_count name = List.length (List.filter (fun s -> s.name = name) !spans)

(* Harness spans in the Exec span type, so one Telemetry.chrome_trace
   call renders them (on worker id 100, clear of the domain pool's
   0..n-1). *)
let telemetry_spans () =
  List.rev_map
    (fun s ->
      { Core.Telemetry.label = s.name; index = 0; worker = 100;
        queued_at = s.t0; started_at = s.t0; ended_at = s.t1 })
    !spans

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                           *)

let safe_div a b = if b = 0.0 then 0.0 else a /. b

let sum = List.fold_left ( +. ) 0.0

let mean_or_zero = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)
