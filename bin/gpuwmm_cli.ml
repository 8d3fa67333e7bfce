(* Command-line interface: reproduce every table and figure of the paper,
   tune chips, test and harden applications, and run litmus tests. *)

open Cmdliner

(* Set by setup_log; lets non-ticker informational messages (shard
   completion notes, listen banners) honour --quiet too — a shard
   worker spawned with -q must stay silent unconditionally. *)
let quiet_flag = ref false

let setup_log ?(quiet = false) verbose =
  quiet_flag := quiet;
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning);
  (* The execution engine owns campaign progress/throughput reporting.
     Under -v every progress line goes through Logs; otherwise, when
     stderr is an interactive terminal, a single in-place line is kept
     up to date; --quiet (or a non-tty stderr) disables progress. *)
  let reporter =
    if quiet then None
    else if verbose then
      Some
        { Core.Exec.line = (fun m -> Logs.info (fun f -> f "%s" m));
          finished = (fun () -> ()) }
    else if Unix.isatty Unix.stderr then
      Some
        { Core.Exec.line = (fun m -> Printf.eprintf "\r\027[K%s%!" m);
          finished = (fun () -> Printf.eprintf "\n%!") }
    else None
  in
  Core.Exec.set_progress reporter

(* ------------------------------------------------------------------ *)
(* Common arguments                                                     *)

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print progress messages.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed; equal seeds reproduce runs exactly.")

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ]
        ~docv:"N"
        ~env:(Cmd.Env.info "GPUWMM_JOBS")
        ~doc:
          "Worker domains for campaign execution, the calling one \
           included.  Defaults to $(b,GPUWMM_JOBS) if set, else the \
           runtime's recommended domain count.  $(docv) = 1 runs every \
           job on the calling domain.  Results are bit-identical for \
           every job count at a given --seed.")

(* The --jobs value in 1..512; clamp_jobs warns when the requested value
   is outside that range. *)
let jobs_of = function
  | Some n -> Core.Exec.clamp_jobs n
  | None -> Core.Exec.default_jobs ()

let chip_conv =
  let parse s =
    match Gpusim.Chip.by_name s with
    | Some c -> Ok c
    | None ->
      if String.lowercase_ascii s = "sc" then Ok Gpusim.Chip.sequential
      else
        Error
          (`Msg
            (Printf.sprintf "unknown chip %S (known: %s)" s
               (String.concat ", "
                  (List.map (fun c -> c.Gpusim.Chip.name) Gpusim.Chip.all))))
  in
  Arg.conv (parse, fun ppf c -> Fmt.string ppf c.Gpusim.Chip.name)

let chip =
  Arg.(
    value
    & opt chip_conv Gpusim.Chip.k20
    & info [ "chip" ] ~docv:"CHIP" ~doc:"Target chip (default K20).")

let chips =
  Arg.(
    value
    & opt (list chip_conv) [ Gpusim.Chip.k20 ]
    & info [ "chips" ] ~docv:"CHIPS"
        ~doc:"Comma-separated chips; use --all-chips for all seven.")

let all_chips =
  Arg.(value & flag & info [ "all-chips" ] ~doc:"Use all seven chips.")

let app_conv =
  let parse s =
    match Apps.Registry.by_name s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown application %S (known: %s)" s
             (String.concat ", "
                (List.map (fun a -> a.Apps.App.name) Apps.Registry.all))))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf a.Apps.App.name)

(* One check per kind of numeric flag, run before any ledger, port or
   journal is touched: a refused value exits 2 and names its flag.  Each
   check says what a value must be, so [nan], which fails every
   comparison, is refused too.  A duration must be finite because a
   non-finite deadline never passes, and [Json] writes it as [null],
   which no journal reads back. *)
let require ~what ok flag v =
  if not (ok v) then begin
    Fmt.epr "--%s must be %s@." flag what;
    exit 2
  end

let require_finite = require ~what:"a finite number of seconds" Float.is_finite

let require_probability =
  require ~what:"a probability in [0,1]" (fun p -> p >= 0.0 && p <= 1.0)

let require_tolerance =
  require ~what:"a finite, non-negative number" (fun v ->
      Float.is_finite v && v >= 0.0)

let require_scale =
  require ~what:"a finite, positive number" (fun v ->
      Float.is_finite v && v > 0.0)

let require_count = require ~what:"a positive integer" (fun n -> n > 0)

let require_non_negative = require ~what:"a non-negative integer" (( <= ) 0)

(* A distance counts words, so it must also fit the simulated device. *)
let require_distance fits =
  require ~what:"a non-negative distance that fits the simulated device" fits

let budget_term =
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Use the paper-scale campaign budget (D = L = 256, C = 1000); \
             hours per chip.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "runs-scale" ] ~docv:"F"
          ~doc:"Scale per-point execution counts by F.")
  in
  let make full scale =
    require_scale "runs-scale" scale;
    let b = if full then Core.Budget.paper else Core.Budget.default in
    if scale = 1.0 then b else Core.Budget.scale_runs b scale
  in
  Term.(const make $ full $ scale)

let resolve_chips chips all = if all then Gpusim.Chip.all else chips

(* A campaign over no chip would print empty tables (table 3 crashed). *)
let require_chips = function
  | [] ->
    Fmt.epr "--chips: the chip list is empty; name at least one chip@.";
    exit 2
  | _ -> ()

let csv_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write raw data as CSV to FILE.")

let write_file p contents =
  let oc = open_out p in
  output_string oc contents;
  close_out oc;
  Fmt.pr "wrote %s@." p

let write_csv path contents =
  match path with None -> () | Some p -> write_file p contents

(* ------------------------------------------------------------------ *)
(* Run ledgers                                                          *)

let quiet =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ] ~doc:"Suppress the live progress line.")

let log_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write a durable JSONL run ledger to $(docv) as jobs complete; a \
           killed campaign can be resumed from it with $(b,--resume), and \
           $(b,gpuwmm report --from) $(docv) re-renders its tables later.")

let resume_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume an interrupted campaign from its ledger: jobs recorded \
           in $(docv) are replayed without re-executing and only the \
           remainder runs.  The invocation must describe the same campaign \
           (kind, seed, parameter grid).  The ledger is rewritten in place \
           unless $(b,--log) names a different file.")

let shard_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard" ] ~docv:"K/N"
        ~doc:
          "Run only shard $(docv) of the campaign's cells (1-based): shard \
           K owns the cells whose plan index is K-1 mod N.  Only $(b,test) \
           and $(b,table 5) shard, because their cells are independent of \
           each other.  Requires $(b,--log): the shard ledger records just \
           this shard's cells, at their unsharded seeds, and carries no \
           result record.  Combine the N shard ledgers with \
           $(b,gpuwmm merge) into one canonical ledger.")

let listen_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Serve live campaign observability on http://127.0.0.1:$(docv) \
           while the campaign runs: $(b,/metrics) (Prometheus text \
           exposition of the telemetry registry plus fleet gauges), \
           $(b,/status) (JSON fleet snapshot, the $(b,gpuwmm status --json) \
           document) and $(b,/healthz).  $(docv) 0 picks a free port and \
           prints it.")

let spans_term =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:
          "Record per-job execution spans and write a Chrome trace-event \
           sidecar $(b,LEDGER.spans.json) next to the ledger (requires \
           $(b,--log)).  Each $(b,--shard) run writes its own sidecar; \
           unify them with $(b,gpuwmm trace --merge).")

let tolerance_term =
  Arg.(
    value & opt float 0.02
    & info [ "tolerance" ] ~docv:"T"
        ~doc:
          "Absolute error-exposure-rate drop a cell may show before it \
           counts as a regression (default 0.02, i.e. two percentage \
           points).")

(* ------------------------------------------------------------------ *)
(* Supervised execution                                                 *)

let timeout_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-job wall-clock budget.  An attempt running longer is \
           cancelled at the simulator's next poll point and counts as \
           failed (retried under $(b,--retries)).")

let retries_term =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts for a failed or timed-out job, re-run at once \
           with the $(i,same) seed, so a successful retry is bit-identical \
           to a fault-free run.")

let keep_going_term =
  Arg.(
    value & flag
    & info [ "keep-going" ]
        ~doc:
          "Quarantine jobs that exhaust their attempts instead of \
           aborting: the campaign completes with degraded cells, the \
           ledger records each failure, and the exit code is 3.")

let setup_supervision ?faults ~timeout ~retries ~keep_going () =
  Option.iter (require_finite "timeout") timeout;
  (match timeout with
  | Some t when t <= 0.0 ->
    Fmt.epr "--timeout must be positive@.";
    exit 2
  | _ -> ());
  if retries < 0 then begin
    Fmt.epr "--retries must be non-negative@.";
    exit 2
  end;
  if timeout <> None || retries > 0 || keep_going || faults <> None then
    Core.Exec.set_supervision
      (Some
         (Core.Exec.supervision ?timeout_s:timeout ~retries ~keep_going
            ?faults ()))

let pp_failure ppf (fl : Core.Exec.failure) =
  Fmt.pf ppf "%s job %d (seed %d, %d attempt(s)): %s" fl.Core.Exec.f_label
    fl.Core.Exec.f_index fl.Core.Exec.f_seed fl.Core.Exec.f_attempts
    fl.Core.Exec.f_reason

(* Print the degradation summary accumulated during a supervised
   campaign; a campaign that quarantined any job exits 3 so CI can tell
   a degraded success from a clean one. *)
let conclude_supervised () =
  let s = Core.Exec.drain_summary () in
  if s.Core.Exec.retried > 0 then
    Logs.info (fun f ->
        f "supervision: %d retry attempt(s) performed" s.Core.Exec.retried);
  match s.Core.Exec.quarantined with
  | [] -> ()
  | qs ->
    Fmt.epr "degraded: %d job(s) quarantined after exhausting attempts:@."
      (List.length qs);
    List.iter (fun fl -> Fmt.epr "  %a@." pp_failure fl) qs;
    exit Core.Exec.exit_degraded

(* Graceful SIGTERM/SIGINT: raise Core.Exec.Interrupted so the campaign
   unwinds through the normal abort path — the ledger keeps its
   resumable prefix, the heartbeat emitter appends its final beat, the
   HTTP server stops — and the process exits 128+signum.  An
   orchestrator stopping a worker is then indistinguishable from a
   crash for resume purposes (both leave a valid prefix), but cleaner:
   no torn trailing line, no stale sidecars.  OCaml's Sys.sigterm /
   Sys.sigint are internal numbers, so the POSIX values are carried
   explicitly. *)
let install_interrupt () =
  List.iter
    (fun (s, signum) ->
      try
        Sys.set_signal s
          (Sys.Signal_handle
             (fun _ -> raise (Core.Exec.Interrupted signum)))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigterm, 15); (Sys.sigint, 2) ]

(* A poison job without --keep-going aborts the campaign (the ledger is
   left footer-less and resumable) with a distinct exit code. *)
let guarded f =
  install_interrupt ();
  let interrupted signum =
    Fmt.epr
      "interrupted by signal %d; the ledger prefix is flushed and \
       resumable with --resume@."
      signum;
    exit (128 + signum)
  in
  try f () with
  | Core.Exec.Job_failed fl ->
    Fmt.epr "failed: %a@." pp_failure fl;
    Fmt.epr
      "rerun with --retries N to retry transient faults, or --keep-going \
       to quarantine poison jobs and continue@.";
    exit Core.Exec.exit_failed
  | Core.Exec.Interrupted signum -> interrupted signum
  | Fun.Finally_raised (Core.Exec.Interrupted signum) ->
    (* The signal landed inside a Fun.protect finaliser (emitter or
       server shutdown); the cleanup still ran. *)
    interrupted signum

let json_strs xs = Core.Json.List (List.map (fun s -> Core.Json.String s) xs)
let chip_names cs = List.map (fun c -> c.Gpusim.Chip.name) cs
let app_names apps = List.map (fun a -> a.Apps.App.name) apps

(* Composite result-record payloads assembled at the CLI layer; the
   drivers own the per-result codecs. *)

let chipped result =
  Core.Codec.(
    list
      (obj (fun chip r -> (chip, r))
      |> mem "chip" string fst |> mem "result" result snd |> seal))

let tuning =
  Core.Codec.(
    list
      (obj (fun minutes r -> (r, minutes))
      |> mem "minutes" float snd |> mem "result" Core.Tuning.result fst
      |> seal))

let seq =
  Core.Codec.(
    obj (fun chip r -> (chip, r))
    |> mem "chip" string fst |> mem "result" Core.Seq_finder.result snd
    |> seal)

(* A ledger with no result record is a shard awaiting its merge or an
   interrupted run; say which, and what finishes it.  Exits 2. *)
let no_result ~path (h : Core.Runlog.header) =
  (match h.Core.Runlog.shard with
  | Some spec ->
    Fmt.epr
      "%s is shard %s of a campaign, with no result record of its own; \
       combine the full shard set with `gpuwmm merge` first@."
      path spec
  | None ->
    Fmt.epr
      "%s has no result record: the campaign was interrupted; finish it \
       first with --resume %s@."
      path path);
  exit 2

(* Render a ledger's reduced result record — the body of `gpuwmm report
   --from`, also used by --resume's complete-ledger fast path. *)
let render_ledger_result ?(format = `Ascii) ~path (l : Core.Runlog.ledger) =
  match l.Core.Runlog.result with
  | None -> no_result ~path l.Core.Runlog.header
  | Some (kind, data) ->
    Core.Report.provenance Fmt.stdout ~path l.Core.Runlog.header;
    let decode c =
      match Core.Codec.decode c data with
      | Ok v -> v
      | Error e ->
        Fmt.epr "%s: cannot decode %S result: %s@." path kind e;
        exit 2
    in
    (* Markdown fallback for kinds without a native md renderer: the
       ASCII table inside a code fence. *)
    let fenced render =
      Fmt.pr "```@.";
      render Fmt.stdout;
      Fmt.pr "```@."
    in
    let render ascii md csv =
      match format with
      | `Ascii -> ascii Fmt.stdout
      | `Md -> md ()
      | `Csv -> print_string (csv ())
    in
    (match kind with
    | "campaign" ->
      let rows = decode Core.Campaign.rows in
      render
        (fun ppf -> Core.Report.table5 ppf rows)
        (fun () -> print_string (Core.Report.table5_md rows))
        (fun () -> Core.Report.table5_csv rows)
    | "tuning" ->
      let results = decode tuning in
      let ascii ppf = Core.Report.table2 ppf results in
      render ascii
        (fun () -> fenced ascii)
        (fun () -> Core.Report.table2_csv results)
    | "seq" ->
      let _chip, r = decode seq in
      let ascii ppf = Core.Report.table3 ppf r in
      render ascii
        (fun () -> fenced ascii)
        (fun () -> Core.Report.table3_csv r)
    | "harden" ->
      let results = decode Core.Harden.results in
      let ascii ppf = Core.Report.table6 ppf results in
      render ascii
        (fun () -> fenced ascii)
        (fun () -> Core.Report.table6_csv results)
    | "patch" ->
      let results = decode (chipped Core.Patch_finder.result) in
      let ascii ppf =
        List.iter (fun (chip, r) -> Core.Report.figure3 ppf ~chip r) results
      in
      render ascii
        (fun () -> fenced ascii)
        (fun () -> Core.Report.patches_csv results)
    | "spread" ->
      let results = decode (chipped Core.Spread_finder.result) in
      let ascii ppf =
        List.iter (fun (chip, r) -> Core.Report.figure4 ppf ~chip r) results
      in
      render ascii
        (fun () -> fenced ascii)
        (fun () -> Core.Report.spreads_csv results)
    | "cost" ->
      let points = decode Core.Cost.points in
      let ascii ppf = Core.Report.figure5 ppf points in
      render ascii
        (fun () -> fenced ascii)
        (fun () -> Core.Report.cost_csv points)
    | k ->
      Fmt.epr "%s: unknown result kind %S@." path k;
      exit 2)

(* Open a ledger around a campaign body.  Without --log/--resume the body
   runs bare.  With --resume, the old ledger is loaded and validated
   against this invocation (campaign kind, seed, grid — exit 2 on
   mismatch), its header is kept verbatim and its completed jobs become
   the resume cache; the file is then rewritten in place (or to --log)
   with the cached records replayed in plan order, so a resumed ledger is
   byte-identical to an uninterrupted one.  On success the reduced result
   and footer are appended; an exception aborts the ledger footer-less,
   leaving a resumable prefix.

   Resuming a ledger that is already complete (footer present, no
   quarantined jobs, result recorded) short-circuits: the recorded result
   is rendered and the file is left byte-untouched — no pool is started
   and no job function runs.  A complete-but-degraded ledger (footer
   records quarantined jobs) takes the normal path instead, so its
   quarantined jobs re-run and can recover.

   With ~shard (a --shard K/N spec, test and table 5 only) the run
   covers only the owned slice of the plan: the header records the
   shard, the journal handed to the body carries it so Exec runs and
   journals just the owned cells (at dense shard-local flush ranks), and
   the ledger is closed without a result record — `gpuwmm merge`
   reassembles the canonical ledger from the full shard set.

   Observability, all result-neutral: every ledgered process beats once
   a second on a <ledger>.hb sidecar (Core.Heartbeat); opt-in, ~listen
   serves /metrics, /status and /healthz over that sidecar for the
   campaign's duration, and ~spans records per-job spans and writes a
   Chrome trace sidecar <ledger>.spans.json with absolute timestamps,
   mergeable across shard runs by `gpuwmm trace --merge`.

   Returns the body's value, or None when a complete ledger was only
   re-rendered. *)
let with_ledger ?shard ?listen ?(spans = false)
    ~campaign ~seed ~jobs ~grid ~log ~resume ~kind ~codec f =
  let shard =
    match shard with
    | None -> None
    | Some spec -> (
      match Core.Shard.parse spec with
      | Ok sh -> Some sh
      | Error e ->
        Fmt.epr "--shard %s: %s@." spec e;
        exit 2)
  in
  (match (shard, log, resume) with
  | Some _, None, None ->
    Fmt.epr
      "--shard requires --log: the shard ledger is the shard's only output@.";
    exit 2
  | _ -> ());
  (match (spans, log, resume) with
  | true, None, None ->
    Fmt.epr "--spans requires --log: the trace sidecar lives next to it@.";
    exit 2
  | _ -> ());
  let shard_spec = Option.map Core.Shard.to_string shard in
  if spans then Core.Telemetry.set_spans true;
  (* The ledger this process writes, and so the heartbeat sidecar the
     HTTP endpoints read. *)
  let ledger = match log with Some _ -> log | None -> resume in
  let hb_paths = Option.to_list (Option.map Core.Heartbeat.hb_path ledger) in
  let observability_handler req =
    let now =
      if Core.Runlog.deterministic_mode () then 0.0 else Unix.gettimeofday ()
    in
    let fleet () = Core.Fleetview.load ~now hb_paths in
    match req with
    | { Core.Httpd.meth = "POST"; _ } ->
      Core.Httpd.respond ~status:405 "method not allowed\n"
    | { path = "/" | "/status"; _ } ->
      Core.Httpd.respond ~content_type:"application/json"
        (Core.Json.to_string (Core.Fleetview.render_json (fleet ())) ^ "\n")
    | _ -> Core.Fleetview.route ~observe:(fun () -> (fleet (), "")) req
  in
  let server =
    match listen with
    | None -> None
    | Some port -> (
      match Core.Httpd.start_routes ~port observability_handler with
      | s ->
        if not !quiet_flag then
          Fmt.epr "serving /metrics and /status on http://127.0.0.1:%d@."
            (Core.Httpd.port s);
        Some s
      | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "--listen %d: %s@." port (Unix.error_message e);
        exit 2)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Core.Httpd.stop server)
    (fun () ->
      match ledger with
      | None -> Some (f None)
      | Some path ->
        let loaded =
          match resume with
          | None -> None
          | Some p -> (
            match Core.Runlog.load p with
            | Error e ->
              Fmt.epr "cannot resume from %s: %s@." p e;
              exit 2
            | Ok l ->
              (match
                 Core.Runlog.validate_resume ?shard:shard_spec l ~path:p
                   ~campaign ~seed ~grid
               with
              | Ok () -> ()
              | Error m ->
                Fmt.epr "%s@." m;
                exit 2);
              if l.Core.Runlog.torn then
                Fmt.epr
                  "note: %s ends mid-record (killed during a write); \
                   dropping the torn line@."
                  p;
              Some l)
        in
        let complete =
          match loaded with
          | Some l ->
            l.Core.Runlog.result <> None
            && (match l.Core.Runlog.footer with
               | Some ft -> ft.Core.Runlog.quarantined = 0
               | None -> false)
            && (log = None || log = resume)
          | None -> false
        in
        if complete then begin
          let l = Option.get loaded in
          Fmt.epr "%s is already complete; nothing to re-run@." path;
          render_ledger_result ~path l;
          None
        end
        else begin
          let header =
            match loaded with
            | Some l -> l.Core.Runlog.header
            | None ->
              Core.Runlog.make_header ?jobs ?shard:shard_spec ~campaign ~seed
                ~grid ()
          in
          let cache = Option.map Core.Runlog.cache_of_ledger loaded in
          Option.iter
            (fun c ->
              Logs.info (fun f ->
                  f "resuming from %s: %d completed job record(s)" path
                    (Core.Runlog.cache_size c)))
            cache;
          let sink = Core.Runlog.create ~path header in
          let journal =
            Core.Runlog.journal ~sink ?cache ~origin:path ?shard ""
          in
          let emitter =
            Core.Heartbeat.start ?shard:shard_spec
              ~path:(Core.Heartbeat.hb_path path) ()
          in
          let write_spans () =
            if spans then
              write_file (path ^ ".spans.json")
                (Core.Json.to_string
                   (Core.Telemetry.chrome_trace ~pid:(Unix.getpid ())
                      ?shard:shard_spec ~span_base:0.0
                      ~spans:(Core.Telemetry.spans ()) [])
                ^ "\n")
          in
          match
            Fun.protect
              ~finally:(fun () -> Core.Heartbeat.stop emitter)
              (fun () -> f (Some journal))
          with
          | v ->
            (match shard_spec with
            | Some spec ->
              (* A shard ledger carries no result record: its reduce saw
                 placeholder values for the cells it did not own. *)
              Core.Runlog.close sink;
              write_spans ();
              Logs.info (fun f -> f "shard ledger written to %s" path);
              if not !quiet_flag then
                Fmt.epr
                  "shard %s of campaign written to %s; combine the full \
                   shard set with `gpuwmm merge ... --out LEDGER`@."
                  spec path
            | None ->
              Core.Runlog.append_result sink ~kind (Core.Codec.encode codec v);
              Core.Runlog.close sink;
              write_spans ();
              Logs.info (fun f -> f "ledger written to %s" path));
            Some v
          | exception e ->
            Core.Runlog.abort sink;
            raise e
        end)

(* The flags every ledgered campaign command shares. *)
type campaign_flags = {
  verbose : bool;
  quiet : bool;
  seed : int;
  jobs : int option;
  log : string option;
  resume : string option;
  timeout : float option;
  retries : int;
  keep_going : bool;
}

let campaign_flags =
  let make verbose quiet seed jobs log resume timeout retries keep_going =
    { verbose; quiet; seed; jobs; log; resume; timeout; retries; keep_going }
  in
  Term.(
    const make $ verbose $ quiet $ seed $ jobs_term $ log_term $ resume_term
    $ timeout_term $ retries_term $ keep_going_term)

(* The one ledgered-run sequence of tune, test, harden, table and figure:
   logging and the supervision policy, then the campaign under
   [with_ledger] and [guarded], then the degradation summary's exit code.
   [body] is staged: applied to the backend first, once logging is up, so
   it can reject bad arguments before any ledger exists, then to the
   journal. *)
let run_campaign ?shard ?listen ?spans c ~campaign ~grid ~kind ~codec body =
  setup_log ~quiet:c.quiet c.verbose;
  setup_supervision ~timeout:c.timeout ~retries:c.retries
    ~keep_going:c.keep_going ();
  let body = body (Core.Exec.backend_of_jobs (jobs_of c.jobs)) in
  guarded (fun () ->
      ignore
        (with_ledger ?shard ?listen ?spans ~campaign ~seed:c.seed
           ~jobs:c.jobs ~grid ~log:c.log ~resume:c.resume ~kind ~codec body));
  conclude_supervised ()

(* A per-chip (or per-app-and-chip) journal prefix for campaigns that run
   one driver per chip. *)
let sub_journal journal prefix =
  Option.map (fun j -> Core.Runlog.extend j (prefix ^ "/")) journal

(* The testing environment [label] on [chip]; exit 1 if there is none. *)
let env_of chip label =
  match Core.Campaign.environment ~chip label with
  | Some env -> env
  | None ->
    Fmt.epr "unknown environment %s@." label;
    exit 1

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

let chips_cmd =
  let run verbose =
    setup_log verbose;
    Core.Report.table1 Fmt.stdout
  in
  Cmd.v (Cmd.info "chips" ~doc:"List the seven simulated GPUs (Table 1).")
    Term.(const run $ verbose)

let litmus_cmd =
  let idiom_conv =
    Arg.conv
      ( (fun s ->
          match String.uppercase_ascii s with
          | "MP" -> Ok Litmus.Test.MP
          | "LB" -> Ok Litmus.Test.LB
          | "SB" -> Ok Litmus.Test.SB
          | _ -> Error (`Msg "idiom must be MP, LB or SB")),
        fun ppf i -> Fmt.string ppf (Litmus.Test.idiom_name i) )
  in
  let idiom =
    Arg.(value & opt idiom_conv Litmus.Test.MP & info [ "idiom" ] ~docv:"T")
  in
  let distance =
    Arg.(value & opt int 64 & info [ "distance" ] ~docv:"D")
  in
  let runs = Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N") in
  let env_name =
    Arg.(
      value & opt string "sys-str-"
      & info [ "env" ] ~docv:"ENV"
          ~doc:"Environment: no-str-, sys-str-, sys-str+, rand-str-, ...")
  in
  let run verbose seed chip idiom distance runs env_name =
    setup_log verbose;
    require_count "runs" runs;
    let env = Core.Environment.for_litmus (env_of chip env_name) in
    let inst = { Litmus.Test.idiom; distance } in
    require_distance
      (fun _ -> Litmus.Runner.fits ~chip ~env inst)
      "distance" distance;
    let weak = Litmus.Runner.count_weak ~chip ~seed ~env ~runs inst in
    Fmt.pr "%s with d=%d on %s under %s: %d/%d weak@."
      (Litmus.Test.idiom_name idiom)
      distance chip.Gpusim.Chip.name env_name weak runs;
    Fmt.pr "SC-reachable outcomes: %a@."
      Fmt.(list ~sep:sp (parens (pair ~sep:comma int int)))
      (Litmus.Test.sc_outcomes inst)
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run a litmus test under a testing environment and count weak \
             behaviours.")
    Term.(
      const run $ verbose $ seed $ chip $ idiom $ distance $ runs $ env_name)

let check_cmd =
  let k_term =
    Arg.(
      value & opt int 2
      & info [ "k"; "max-reorderings" ] ~docv:"K"
          ~doc:
            "Reordering bound: schedules performing more than $(docv) \
             out-of-order commits are not explored.  K = 0 restricts the \
             weak machine to its SC schedules; K = 2 covers every litmus \
             outcome the idioms can express.")
  in
  let distances_term =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "distances" ] ~docv:"D,..."
          ~doc:
            "Comma-separated communication distances to check (default: 0 \
             and patch_size - 1, the largest same-partition distance and \
             the smallest cross-partition one).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the report to FILE.")
  in
  let run verbose chip k jobs distances json out =
    setup_log verbose;
    require_non_negative "max-reorderings" k;
    Option.iter (List.iter (require_distance Core.Check.fits "distances"))
      distances;
    let jobs = jobs_of jobs in
    guarded (fun () ->
        let r =
          Core.Check.run_litmus ~chip ~max_reorderings:k ~jobs ?distances ()
        in
        let text =
          if json then Core.Json.to_string (Core.Check.render_json r) ^ "\n"
          else Core.Check.render_ascii r
        in
        print_string text;
        (match out with None -> () | Some p -> write_file p text);
        let failures =
          List.concat_map
            (fun c -> c.Core.Check.replay_failures)
            r.Core.Check.cases
        in
        if failures <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the litmus idioms: enumerate every thread \
          interleaving and store-buffer commit schedule up to a reordering \
          bound (with sleep-set partial-order reduction), prove fenced \
          variants SC-only, produce a replayable witness schedule for every \
          weak behaviour, and confirm each witness by deterministic replay \
          in the simulator.  Exits 1 if any witness fails to replay.")
    Term.(
      const run $ verbose $ chip $ k_term $ jobs_term $ distances_term
      $ json_flag $ out_term)

let tune_cmd =
  let run c chip budget =
    let grid =
      Core.Json.Assoc
        [ ("chips", json_strs (chip_names [ chip ]));
          ("budget", Core.Budget.to_json budget) ]
    in
    run_campaign c ~campaign:"tune" ~grid ~kind:"tuning"
      ~codec:tuning (fun backend journal ->
        let r =
          Core.Tuning.run ~backend ?journal ~chip ~seed:c.seed ~budget ()
        in
        let minutes = r.Core.Tuning.elapsed_s /. 60.0 in
        Core.Report.table2 Fmt.stdout [ (r, minutes) ];
        Core.Report.table3 Fmt.stdout r.Core.Tuning.sequences;
        [ (r, minutes) ])
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Run the full Sec. 3 tuning pipeline for one chip.")
    Term.(const run $ campaign_flags $ chip $ budget_term)

let test_cmd =
  let app_term =
    Arg.(
      value
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"Single application (default: all ten).")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N") in
  let env_name =
    Arg.(value & opt string "sys-str+" & info [ "env" ] ~docv:"ENV")
  in
  let run c shard chip app runs env_name listen spans =
    require_count "runs" runs;
    let apps = match app with Some a -> [ a ] | None -> Apps.Registry.all in
    let grid =
      Core.Campaign.test_grid ~chip:chip.Gpusim.Chip.name ~env:env_name
        ~apps:(app_names apps) ~runs
    in
    run_campaign ?shard ?listen ~spans c ~campaign:"test" ~grid
      ~kind:"campaign" ~codec:Core.Campaign.rows (fun backend ->
        let env = env_of chip env_name in
        fun journal ->
          let rows =
            Core.Campaign.run ~backend ?journal ~chips:[ chip ]
              ~environments_for:(fun _ -> [ env ])
              ~apps ~runs ~seed:c.seed ()
          in
          if shard = None then
            List.iter
              (fun row ->
                List.iter
                  (fun cell ->
                    match cell.Core.Campaign.quarantined with
                    | Some reason ->
                      Fmt.pr "%-12s %s %s: QUARANTINED (%s)@."
                        cell.Core.Campaign.app chip.Gpusim.Chip.name env_name
                        reason
                    | None ->
                      Fmt.pr "%-12s %s %s: %d/%d erroneous runs%s@."
                        cell.Core.Campaign.app chip.Gpusim.Chip.name env_name
                        cell.Core.Campaign.errors cell.Core.Campaign.runs
                        (match Core.Campaign.dominant cell with
                        | None -> ""
                        | Some (msg, n) ->
                          Printf.sprintf "  (dominant: %s x%d)" msg n))
                  row.Core.Campaign.cells)
              rows;
          rows)
  in
  Cmd.v
    (Cmd.info "test"
       ~doc:"Repeatedly execute applications under a testing environment \
             and count erroneous runs (Sec. 4).")
    Term.(
      const run $ campaign_flags $ shard_term $ chip $ app_term $ runs
      $ env_name $ listen_term $ spans_term)

let harden_cmd =
  let app_term =
    Arg.(
      required
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"Application to harden (fence-free).")
  in
  let stability =
    Arg.(value & opt int 200 & info [ "stability-runs" ] ~docv:"N")
  in
  let run c chip app stability =
    require_count "stability-runs" stability;
    let grid =
      Core.Json.Assoc
        [ ("chips", json_strs (chip_names [ chip ]));
          ("apps", json_strs (app_names [ app ]));
          ("stability_runs", Core.Json.Int stability) ]
    in
    run_campaign c ~campaign:"harden" ~grid ~kind:"harden"
      ~codec:Core.Harden.results (fun backend journal ->
        let config =
          { (Core.Harden.default_config ~chip) with stability_runs = stability }
        in
        let r =
          Core.Harden.insert ~chip ~config ~backend ?journal ~app ~seed:c.seed
            ()
        in
        Core.Report.table6 Fmt.stdout [ r ];
        (* Show the hardened kernels. *)
        List.iter
          (fun k ->
            let fenced =
              Apps.App.apply_fencing (Apps.App.Sites r.Core.Harden.fences) k
            in
            if Gpusim.Kernel.fence_sites fenced <> [] then
              Fmt.pr "@.%s@." (Gpusim.Kernel_pp.to_string ~sids:true fenced))
          app.Apps.App.kernels;
        [ r ])
  in
  Cmd.v
    (Cmd.info "harden"
       ~doc:"Empirical fence insertion (Alg. 1) for one application.")
    Term.(const run $ campaign_flags $ chip $ app_term $ stability)

let inspect_cmd =
  let app_term =
    Arg.(
      required
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP")
  in
  let fencing =
    let fencing_conv =
      Arg.conv
        ( (fun s ->
            match String.lowercase_ascii s with
            | "original" -> Ok Apps.App.Original
            | "stripped" | "nf" -> Ok Apps.App.Stripped
            | "conservative" | "cons" -> Ok Apps.App.Conservative
            | _ -> Error (`Msg "fencing: original, stripped or conservative")),
          fun ppf _ -> Fmt.string ppf "<fencing>" )
    in
    Arg.(value & opt fencing_conv Apps.App.Original & info [ "fencing" ] ~docv:"F")
  in
  let run verbose app fencing =
    setup_log verbose;
    List.iter
      (fun k ->
        Fmt.pr "%s@."
          (Gpusim.Kernel_pp.to_string ~sids:true
             (Apps.App.apply_fencing fencing k)))
      app.Apps.App.kernels
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print an application's kernels (CUDA-like syntax).")
    Term.(const run $ verbose $ app_term $ fencing)

let target_cmd =
  let app_term =
    Arg.(
      required
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"Application to analyse and test.")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N") in
  let run verbose seed chip app runs =
    setup_log verbose;
    require_count "runs" runs;
    (* Phase 1: one native run with the race detector attached. *)
    let sim = Gpusim.Sim.create ~chip ~seed () in
    let det = Gpusim.Race.attach sim in
    (match app.Apps.App.run sim Apps.App.Original with
    | Ok () -> ()
    | Error e -> Fmt.pr "(native observation run failed: %s)@." e);
    Gpusim.Race.detach sim det;
    Fmt.pr "communication locations observed in %s:@." app.Apps.App.name;
    Gpusim.Race.pp_findings Fmt.stdout (Gpusim.Race.findings det);
    let addresses = Gpusim.Race.data_locations det in
    (* Phase 2: targeted stress vs the tuned blind strategies. *)
    let tuned = Core.Tuning.shipped ~chip in
    let targeted =
      Core.Environment.make
        (Core.Stress.Targeted
           { sequence = tuned.Core.Stress.sequence; addresses })
        ~randomise:true
    in
    Fmt.pr "@.%d data location(s) targeted@." (List.length addresses);
    List.iter
      (fun env ->
        let cell = Core.Campaign.test_app ~chip ~env ~app ~runs ~seed in
        Fmt.pr "  %-10s %3d/%3d erroneous runs@." env.Core.Environment.label
          cell.Core.Campaign.errors cell.Core.Campaign.runs)
      [ Core.Environment.make Core.Stress.No_stress ~randomise:false;
        Core.Environment.sys_plus ~tuned; targeted ]
  in
  Cmd.v
    (Cmd.info "target"
       ~doc:"Detect an application's communication locations with the              dynamic race detector and stress exactly their memory              partitions (the paper's future-work item (e)).")
    Term.(const run $ verbose $ seed $ chip $ app_term $ runs)

(* Union several Chrome trace-event files into one timeline
   ({!Core.Telemetry.merge_chrome}); an unreadable input exits 2. *)
let merge_chrome_traces inputs =
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Core.Telemetry.merge_chrome
    (List.concat_map
       (fun p ->
         let fail msg =
           Fmt.epr "%s: %s@." p msg;
           exit 2
         in
         match Core.Json.of_string (read_file p) with
         | exception Sys_error e -> fail e
         | Error e -> fail e
         | Ok j -> (
           match Core.Telemetry.chrome_events j with
           | Ok evs -> evs
           | Error e -> fail e))
       inputs)

let trace_cmd =
  let app_term =
    Arg.(
      value
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"Application to trace.")
  in
  let merge =
    Arg.(
      value & flag
      & info [ "merge" ]
          ~doc:
            "Merge mode: instead of tracing an application, union the \
             Chrome trace files given as positional arguments (e.g. the \
             $(b,LEDGER.spans.json) sidecars each $(b,--spans) worker \
             wrote) into one timeline at $(b,--out), rebasing timestamps \
             to the earliest event.")
  in
  let merge_inputs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:"Chrome trace-event files to merge (with $(b,--merge)).")
  in
  let env_name =
    Arg.(
      value & opt string "sys-str+"
      & info [ "env" ] ~docv:"ENV"
          ~doc:"Testing environment: no-str-, sys-str+, rand-str+, ...")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Chrome trace-event output file; open in chrome://tracing or \
             ui.perfetto.dev.")
  in
  let jsonl_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also write the raw event records as JSON Lines to FILE.")
  in
  let capacity =
    Arg.(
      value
      & opt int Gpusim.Trace.default_capacity
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Trace ring-buffer capacity; when a run emits more events, the \
             oldest are dropped.")
  in
  let run verbose seed chip app env_name out jsonl_out capacity merge
      merge_inputs =
    setup_log verbose;
    if merge then begin
      if merge_inputs = [] then begin
        Fmt.epr "--merge needs at least one trace file@.";
        exit 1
      end;
      write_file out
        (Core.Json.to_string (merge_chrome_traces merge_inputs) ^ "\n")
    end
    else begin
    if merge_inputs <> [] then begin
      Fmt.epr "positional trace files are only meaningful with --merge@.";
      exit 1
    end;
    let app =
      match app with
      | Some a -> a
      | None ->
        Fmt.epr "either --app APP (trace a run) or --merge FILES is required@.";
        exit 1
    in
    require_count "capacity" capacity;
    let env = env_of chip env_name in
    let sim = Gpusim.Sim.create ~chip ~seed () in
    Gpusim.Sim.set_environment sim (Core.Environment.for_app env);
    let sink = Gpusim.Sim.trace sim in
    Gpusim.Trace.enable ~capacity sink;
    let outcome = app.Apps.App.run sim Apps.App.Original in
    let records = Gpusim.Trace.records sink in
    Fmt.pr "%s on %s under %s: %s@." app.Apps.App.name
      chip.Gpusim.Chip.name env_name
      (match outcome with Ok () -> "ok" | Error e -> "ERROR " ^ e);
    Fmt.pr "%d event(s) recorded (%d emitted, %d dropped by the ring)@."
      (List.length records)
      (Gpusim.Trace.emitted sink)
      (Gpusim.Trace.dropped sink);
    write_file out
      (Core.Json.to_string (Core.Telemetry.chrome_trace records) ^ "\n");
    Option.iter
      (fun p -> write_file p (Core.Telemetry.jsonl records))
      jsonl_out
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute one application with the event tracer enabled and export \
          the recorded simulator events (instruction issue and commit, \
          reorders, fences, barriers, contention samples) as a Chrome \
          trace-event file; or, with $(b,--merge), union per-worker trace \
          files into one timeline.")
    Term.(
      const run $ verbose $ seed $ chip $ app_term $ env_name $ out
      $ jsonl_out $ capacity $ merge $ merge_inputs)

let ablate_cmd =
  let runs = Arg.(value & opt int 150 & info [ "runs" ] ~docv:"N") in
  let run verbose seed chip runs =
    setup_log verbose;
    require_count "runs" runs;
    (* Ablate each ingredient of the tuned environment on one litmus
       instance, showing what each design choice buys. *)
    let inst = { Litmus.Test.idiom = Litmus.Test.SB; distance = 64 } in
    let tuned = Core.Tuning.shipped ~chip in
    let weak label strategy randomise =
      let env =
        Core.Environment.for_litmus (Core.Environment.make strategy ~randomise)
      in
      let n = Litmus.Runner.count_weak ~chip ~seed ~env ~runs inst in
      Fmt.pr "  %-34s %4d / %d weak@." label n runs
    in
    Fmt.pr "Ablation on %s, SB litmus test at distance 64:@."
      chip.Gpusim.Chip.name;
    let nat = Litmus.Runner.count_weak ~chip ~seed ~runs inst in
    Fmt.pr "  %-34s %4d / %d weak@." "no stress (baseline)" nat runs;
    weak "tuned (sequence + spread 2)" (Core.Stress.Sys tuned) false;
    weak "tuned + thread randomisation"
      (Core.Stress.Sys tuned) true;
    weak "worst sequence (pure stores)"
      (Core.Stress.Sys { tuned with sequence = [ Core.Access_seq.St ] })
      false;
    weak "over-spread (all 16 regions)"
      (Core.Stress.Sys { tuned with spread = 16 })
      false;
    weak "under-spread (1 region)"
      (Core.Stress.Sys { tuned with spread = 1 })
      false;
    weak "random locations (rand-str)"
      (Core.Stress.Rand { scratch_words = 1024 })
      false;
    weak "L2-walk (cache-str)" Core.Stress.Cache false
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Ablate the tuned environment's design choices (sequence,              spread, randomisation) on a litmus test.")
    Term.(const run $ verbose $ seed $ chip $ runs)

let run_litmus_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A .litmus test file.")
  in
  let runs = Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N") in
  let env_name =
    Arg.(value & opt string "sys-str+" & info [ "env" ] ~docv:"ENV")
  in
  let run verbose seed chip file runs env_name =
    setup_log verbose;
    require_count "runs" runs;
    let ic = open_in file in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    match Litmus.Lang.parse src with
    | Error e ->
      Fmt.epr "%s: %s@." file e;
      exit 1
    | Ok t ->
      Fmt.pr "%a@." Litmus.Lang.pp t;
      let sc = Litmus.Lang.sc_allows t in
      Fmt.pr "condition reachable under SC: %b@." sc;
      let env = env_of chip env_name in
      let n =
        Litmus.Lang.count_satisfied ~chip ~seed
          ~env:(Core.Environment.for_litmus env) ~runs t
      in
      Fmt.pr "observed on %s under %s: %d/%d%s@." chip.Gpusim.Chip.name
        env_name n runs
        (if (not sc) && n > 0 then "  ** WEAK BEHAVIOUR **" else "")
  in
  Cmd.v
    (Cmd.info "run-litmus"
       ~doc:"Parse a .litmus file, check its condition against the SC              oracle, and run it on the weak machine.")
    Term.(const run $ verbose $ seed $ chip $ file $ runs $ env_name)

(* ------------------------------------------------------------------ *)
(* Tables and figures                                                   *)

let table_cmd =
  let number =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Table number (1-6).")
  in
  let runs = Arg.(value & opt int 40 & info [ "runs" ] ~docv:"N") in
  let run c shard chips all number budget runs listen spans =
    if shard <> None && number <> 5 then begin
      Fmt.epr "--shard: only test and table 5 shard, not table %d@." number;
      exit 2
    end;
    require_count "runs" runs;
    let chips = resolve_chips chips all in
    let grid =
      Core.Campaign.table_grid ~chips:(chip_names chips) ~budget ~runs
    in
    let ledgered ~kind ~codec body =
      require_chips chips;
      run_campaign ?shard ?listen ~spans c
        ~campaign:(Printf.sprintf "table%d" number)
        ~grid ~kind ~codec body
    in
    let static render =
      if c.log <> None || c.resume <> None then
        Fmt.epr "table %d is static; --log/--resume ignored@." number;
      render Fmt.stdout
    in
    match number with
    | 1 -> static Core.Report.table1
    | 2 ->
      ledgered ~kind:"tuning" ~codec:tuning (fun backend journal ->
          let results =
            List.map
              (fun chip ->
                let r =
                  Core.Tuning.run ~backend
                    ?journal:(sub_journal journal chip.Gpusim.Chip.name)
                    ~chip ~seed:c.seed ~budget ()
                in
                (r, r.Core.Tuning.elapsed_s /. 60.0))
              chips
          in
          Core.Report.table2 Fmt.stdout results;
          results)
    | 3 ->
      ledgered ~kind:"seq" ~codec:seq (fun backend journal ->
          let chip = List.hd chips in
          let patch =
            Core.Patch_finder.run ~backend ?journal ~chip ~seed:c.seed ~budget
              ()
          in
          let r =
            Core.Seq_finder.run ~backend ?journal ~chip ~seed:c.seed ~budget
              ~patch:patch.Core.Patch_finder.chosen ()
          in
          Core.Report.table3 Fmt.stdout r;
          (chip.Gpusim.Chip.name, r))
    | 4 -> static Core.Report.table4
    | 5 ->
      ledgered ~kind:"campaign" ~codec:Core.Campaign.rows
        (fun backend journal ->
          let rows =
            Core.Campaign.run ~backend ?journal ~chips
              ~environments_for:Core.Campaign.environments
              ~apps:Apps.Registry.all ~runs ~seed:c.seed ()
          in
          if shard = None then Core.Report.table5 Fmt.stdout rows;
          rows)
    | 6 ->
      ledgered ~kind:"harden" ~codec:Core.Harden.results
        (fun backend journal ->
          let results =
            List.concat_map
              (fun app ->
                List.map
                  (fun chip ->
                    let journal =
                      sub_journal journal
                        (app.Apps.App.name ^ "/" ^ chip.Gpusim.Chip.name)
                    in
                    Core.Harden.insert ~chip ~backend ?journal ~app
                      ~seed:c.seed ())
                  chips)
              Apps.Registry.fence_free
          in
          Core.Report.table6 Fmt.stdout results;
          results)
    | n ->
      Fmt.epr "no table %d (the paper has tables 1-6)@." n;
      exit 1
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Reproduce a table of the paper.")
    Term.(
      const run $ campaign_flags $ shard_term $ chips $ all_chips $ number
      $ budget_term $ runs $ listen_term $ spans_term)

let figure_cmd =
  let number =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Figure number (3-5).")
  in
  let runs = Arg.(value & opt int 30 & info [ "runs" ] ~docv:"N") in
  let run c chips all number budget runs csv =
    require_count "runs" runs;
    let chips = resolve_chips chips all in
    let grid =
      Core.Campaign.table_grid ~chips:(chip_names chips) ~budget ~runs
    in
    let ledgered ~kind ~codec body =
      require_chips chips;
      run_campaign c ~campaign:(Printf.sprintf "figure%d" number)
        ~grid ~kind ~codec body
    in
    match number with
    | 3 ->
      ledgered ~kind:"patch"
        ~codec:(chipped Core.Patch_finder.result)
        (fun backend journal ->
          let results =
            List.map
              (fun chip ->
                let r =
                  Core.Patch_finder.run ~backend
                    ?journal:(sub_journal journal chip.Gpusim.Chip.name)
                    ~chip ~seed:c.seed ~budget ()
                in
                Core.Report.figure3 Fmt.stdout ~chip:chip.Gpusim.Chip.name r;
                (chip.Gpusim.Chip.name, r))
              chips
          in
          write_csv csv (Core.Report.patches_csv results);
          results)
    | 4 ->
      ledgered ~kind:"spread"
        ~codec:(chipped Core.Spread_finder.result)
        (fun backend journal ->
          let results =
            List.map
              (fun chip ->
                let journal = sub_journal journal chip.Gpusim.Chip.name in
                let patch =
                  Core.Patch_finder.run ~backend ?journal ~chip ~seed:c.seed
                    ~budget ()
                in
                let sequence =
                  (Core.Tuning.shipped ~chip).Core.Stress.sequence
                in
                let r =
                  Core.Spread_finder.run ~backend ?journal ~chip ~seed:c.seed
                    ~budget ~patch:patch.Core.Patch_finder.chosen ~sequence ()
                in
                Core.Report.figure4 Fmt.stdout ~chip:chip.Gpusim.Chip.name r;
                (chip.Gpusim.Chip.name, r))
              chips
          in
          write_csv csv (Core.Report.spreads_csv results);
          results)
    | 5 ->
      ledgered ~kind:"cost" ~codec:Core.Cost.points
        (fun backend journal ->
          let apps = Apps.Registry.fence_free in
          (* emp_for runs inside a Cost job; keep the nested hardening serial
             so a parallel cost campaign does not oversubscribe domains. *)
          let emp_for chip app =
            (Core.Harden.insert ~chip ~app ~seed:c.seed ()).Core.Harden.fences
          in
          let points =
            Core.Cost.run ~backend ?journal ~chips ~apps ~emp_for ~runs
              ~seed:c.seed ()
          in
          Core.Report.figure5 Fmt.stdout points;
          write_csv csv (Core.Report.cost_csv points);
          points)
    | n ->
      Fmt.epr "no figure %d here (the paper's figures 3-5 are reproducible)@." n;
      exit 1
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Reproduce a figure of the paper.")
    Term.(
      const run $ campaign_flags $ chips $ all_chips $ number $ budget_term
      $ runs $ csv_out)

(* ------------------------------------------------------------------ *)
(* Chaos testing: deterministic fault injection                         *)

let chaos_cmd =
  let app_term =
    Arg.(
      value
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"Single application (default: all ten).")
  in
  let runs = Arg.(value & opt int 12 & info [ "runs" ] ~docv:"N") in
  let env_name =
    Arg.(value & opt string "sys-str+" & info [ "env" ] ~docv:"ENV")
  in
  let log_term =
    Arg.(
      value & opt string "chaos.jsonl"
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Ledger of the faulted campaign.  Its header describes a \
             $(b,test) campaign, so $(b,gpuwmm test --resume) $(docv) with \
             the same parameters re-runs the quarantined jobs fault-free.")
  in
  let faults_term =
    Arg.(
      value & opt string "raise,ledger"
      & info [ "faults" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated executor fault kinds to inject: $(b,raise) \
             (job crash), $(b,hang) (wedge until $(b,--timeout) cancels), \
             $(b,corrupt) (silent wrong result), $(b,ledger) (ledger \
             write failure).")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.25
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Per-attempt fault probability in [0,1].")
  in
  let fault_seed_term =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the fault plan; faults are a pure function of \
             (fault seed, job index, attempt).  Default: derived from \
             $(b,--seed).")
  in
  let fault_attempts =
    Arg.(
      value & opt int 1
      & info [ "fault-attempts" ] ~docv:"K"
          ~doc:
            "Only the first $(docv) attempts of a job may fault; retries \
             beyond them run clean (so --retries $(docv) always heals \
             raise/hang/ledger faults).")
  in
  let soft_rate =
    Arg.(
      value & opt float 0.0
      & info [ "soft-rate" ] ~docv:"P"
          ~doc:
            "Per-store probability of an injected single-bit soft error \
             in simulated global memory (armed for the reference run too, \
             so the executor-fault invariants still hold).")
  in
  let run verbose quiet seed chip app runs env_name jobs log faults
      fault_rate fault_seed fault_attempts soft_rate timeout retries
      keep_going =
    setup_log ~quiet verbose;
    require_count "runs" runs;
    require_non_negative "fault-attempts" fault_attempts;
    require_probability "fault-rate" fault_rate;
    require_probability "soft-rate" soft_rate;
    let kinds =
      match Core.Fault.parse_kinds faults with
      | Ok k -> k
      | Error e ->
        Fmt.epr "--faults: %s@." e;
        exit 2
    in
    let fault_seed =
      match fault_seed with Some s -> s | None -> seed lxor 0xfa17
    in
    let plan =
      try
        Core.Fault.plan ~rate:fault_rate ~kinds
          ~faulty_attempts:fault_attempts ~soft_error_rate:soft_rate
          ~seed:fault_seed ()
      with Invalid_argument m ->
        Fmt.epr "%s@." m;
        exit 2
    in
    (* A hang can only be survived when a timeout is armed. *)
    let timeout =
      match timeout with
      | Some _ -> timeout
      | None -> if List.mem Core.Fault.Hang kinds then Some 5.0 else None
    in
    (* The faulted campaign's policy; the fault-free reference runs
       after it, unsupervised. *)
    setup_supervision ~faults:plan ~timeout ~retries ~keep_going ();
    let env = env_of chip env_name in
    let apps = match app with Some a -> [ a ] | None -> Apps.Registry.all in
    let backend = Core.Exec.backend_of_jobs (jobs_of jobs) in
    (* Soft errors are simulator-level and deterministic per device seed,
       so they are armed for the reference run too: the invariants below
       measure executor faults only. *)
    if soft_rate > 0.0 then
      Gpusim.Sim.set_soft_error_default (Some (soft_rate, fault_seed));
    Fmt.pr "chaos: fault plan: %a@." Core.Fault.pp plan;
    let campaign_rows journal =
      Core.Campaign.run ~backend ?journal ~chips:[ chip ]
        ~environments_for:(fun _ -> [ env ])
        ~apps ~runs ~seed ()
    in
    let cells_of rows =
      List.concat_map (fun r -> r.Core.Campaign.cells) rows
    in
    (* 1. Pure predictions from the fault plan (one job per application),
       computed before the faulted run, never from its observations. *)
    let n_jobs = List.length apps in
    let predictions =
      List.init n_jobs (fun i -> Core.Fault.predict plan ~retries ~index:i)
    in
    let predicted o =
      List.concat
        (List.mapi
           (fun i (p : Core.Fault.prediction) ->
             if p.Core.Fault.outcome = o then [ i ] else [])
           predictions)
    in
    let pred_quarantined = predicted `Quarantined in
    let pred_corrupted = predicted `Corrupted in
    let pred_retried =
      List.fold_left
        (fun acc (p : Core.Fault.prediction) ->
          acc + p.Core.Fault.attempts - 1)
        0 predictions
    in
    Fmt.pr
      "chaos: %d job(s); predicting %d quarantine(s), %d corrupted \
       result(s), %d retry attempt(s)@."
      n_jobs
      (List.length pred_quarantined)
      (List.length pred_corrupted)
      pred_retried;
    (* 2. The campaign under the fault plan, supervised and ledgered as a
       `test` campaign, so `gpuwmm test --resume` takes the ledger. *)
    let grid =
      Core.Campaign.test_grid ~chip:chip.Gpusim.Chip.name ~env:env_name
        ~apps:(app_names apps) ~runs
    in
    let ledgered ~resume path =
      Option.get
        (with_ledger ~campaign:"test" ~seed ~jobs ~grid ~log:(Some path)
           ~resume ~kind:"campaign" ~codec:Core.Campaign.rows
           campaign_rows)
    in
    let outcome =
      match ledgered ~resume:None log with
      | rows -> Ok rows
      | exception Core.Exec.Job_failed fl -> Error fl
    in
    (* set_supervision resets the summary, so drain first. *)
    let summary = Core.Exec.drain_summary () in
    Core.Exec.set_supervision None;
    match outcome with
    | Error fl ->
      Fmt.epr "failed: %a@." pp_failure fl;
      Fmt.epr
        "chaos: campaign aborted on a poison job (no --keep-going); %s \
         is footer-less and resumable@."
        log;
      exit Core.Exec.exit_failed
    | Ok rows ->
      let chaos_cells = cells_of rows in
      (* 3. Fault-free reference at the same seeds. *)
      let ref_cells = cells_of (campaign_rows None) in
      let violations = ref 0 in
      let check name ok detail =
        if ok then Fmt.pr "  ok: %s@." name
        else begin
          incr violations;
          Fmt.pr "  VIOLATED: %s (%s)@." name (detail ())
        end
      in
      let ints l = String.concat "," (List.map string_of_int l) in
      Fmt.pr "chaos: checking invariants@.";
      let actual_q =
        List.sort compare
          (List.map
             (fun fl -> fl.Core.Exec.f_index)
             summary.Core.Exec.quarantined)
      in
      check "quarantine set matches the pure fault-plan prediction"
        (actual_q = pred_quarantined)
        (fun () ->
          Printf.sprintf "predicted [%s], observed [%s]"
            (ints pred_quarantined) (ints actual_q));
      check "retry count matches prediction"
        (summary.Core.Exec.retried = pred_retried)
        (fun () ->
          Printf.sprintf "predicted %d, observed %d" pred_retried
            summary.Core.Exec.retried);
      let identical = ref true in
      let first_diff = ref (-1) in
      List.iteri
        (fun i (p : Core.Fault.prediction) ->
          if
            p.Core.Fault.outcome = `Clean
            && List.nth chaos_cells i <> List.nth ref_cells i
          then begin
            identical := false;
            if !first_diff < 0 then first_diff := i
          end)
        predictions;
      check
        "surviving jobs are bit-identical to the fault-free reference \
         (retries reuse the planned seed)"
        !identical
        (fun () -> Printf.sprintf "cell %d differs" !first_diff);
      check "quarantined cells carry no measurements"
        (List.for_all
           (fun i ->
             let c = List.nth chaos_cells i in
             c.Core.Campaign.quarantined <> None && c.Core.Campaign.runs = 0)
           pred_quarantined)
        (fun () -> "a quarantined cell has data");
      (match Core.Runlog.load log with
      | Error e -> check "ledger reloads" false (fun () -> e)
      | Ok l ->
        let failed_idx =
          List.sort compare
            (List.filter_map
               (fun (j : Core.Runlog.job) ->
                 if j.Core.Runlog.failed <> None then
                   Some j.Core.Runlog.index
                 else None)
               l.Core.Runlog.jobs)
        in
        check "ledger records every quarantined job"
          (failed_idx = pred_quarantined)
          (fun () ->
            Printf.sprintf "ledger has failed records [%s]"
              (ints failed_idx));
        check "ledger footer counts the quarantined jobs"
          (match l.Core.Runlog.footer with
          | Some ft ->
            ft.Core.Runlog.quarantined = List.length pred_quarantined
          | None -> false)
          (fun () -> "footer missing or wrong count");
        (* 4. Resume the chaos ledger with faults cleared: quarantined
           jobs re-run clean and recover the reference result;
           corrupted records persist (they were recorded as
           successes — silent corruption survives resume). *)
        let resumed_path = log ^ ".resumed" in
        let cells2 = cells_of (ledgered ~resume:(Some log) resumed_path) in
        let recovered = ref true in
        let first_bad = ref (-1) in
        List.iteri
          (fun i (p : Core.Fault.prediction) ->
            let expect =
              if p.Core.Fault.outcome = `Corrupted then
                List.nth chaos_cells i
              else List.nth ref_cells i
            in
            if List.nth cells2 i <> expect then begin
              recovered := false;
              if !first_bad < 0 then first_bad := i
            end)
          predictions;
        check "fault-free resume recovers every quarantined cell"
          !recovered
          (fun () -> Printf.sprintf "cell %d" !first_bad);
        Fmt.pr "chaos: resumed ledger written to %s@." resumed_path);
      Core.Report.table5 Fmt.stdout rows;
      if !violations > 0 then begin
        Fmt.epr "chaos: %d invariant violation(s)@." !violations;
        exit Core.Exec.exit_failed
      end;
      if pred_quarantined <> [] then begin
        Fmt.epr
          "degraded: %d cell(s) quarantined (as planned); recover with: \
           gpuwmm test --resume %s [same parameters]@."
          (List.length pred_quarantined)
          log;
        exit Core.Exec.exit_degraded
      end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a test campaign under a deterministic fault-injection plan \
          (job crashes, hangs, corrupted results, ledger write failures, \
          soft-error bit flips) and check the supervision invariants: \
          healed jobs are bit-identical to a fault-free run, quarantined \
          jobs are recorded in the ledger and recovered by a fault-free \
          resume.  Exits 0 when nothing was quarantined, 3 when the \
          campaign degraded as planned, 4 on an invariant violation or \
          abort.")
    Term.(
      const run $ verbose $ quiet $ seed $ chip $ app_term $ runs $ env_name
      $ jobs_term $ log_term $ faults_term $ fault_rate $ fault_seed_term
      $ fault_attempts $ soft_rate $ timeout_term $ retries_term
      $ keep_going_term)

(* ------------------------------------------------------------------ *)
(* Ledger-backed reporting and comparison                               *)

let merge_cmd =
  let inputs =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"SHARD"
          ~doc:"Shard ledgers to combine — the full 1/N .. N/N set.")
  in
  let out_term =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the merged ledger to $(docv).")
  in
  let run verbose paths out =
    setup_log verbose;
    match Core.Merge.merge ~out paths with
    | Error e ->
      Fmt.epr "merge failed: %s@." e;
      exit 2
    | Ok o ->
      Fmt.pr "merged %d shards (%d job records) into %s%s@."
        o.Core.Merge.shards o.Core.Merge.jobs o.Core.Merge.out_path
        (if o.Core.Merge.quarantined > 0 then
           Printf.sprintf
             " — %d quarantined job(s); finish it with --resume %s"
             o.Core.Merge.quarantined o.Core.Merge.out_path
         else "");
      if o.Core.Merge.quarantined > 0 then exit Core.Exec.exit_degraded
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Combine the shard ledgers of a $(b,--shard)-partitioned \
          $(b,test) or $(b,table 5) campaign into one canonical ledger.  \
          Under $(b,GPUWMM_LEDGER_DETERMINISTIC) the output is \
          byte-identical to a single-process run of the same campaign, so \
          $(b,report), $(b,compare) and $(b,--resume) work on it \
          unchanged.  Fails closed — writing nothing — on an output that \
          is one of the inputs, another campaign kind, a missing or \
          duplicated shard, overlapping or missing jobs (resume the \
          interrupted shard first), or shards whose plan headers \
          disagree.")
    Term.(const run $ verbose $ inputs $ out_term)

let report_cmd =
  let from_term =
    Arg.(
      required
      & opt (some file) None
      & info [ "from" ] ~docv:"LEDGER" ~doc:"Run ledger to render.")
  in
  let format_term =
    Arg.(
      value
      & opt (enum [ ("ascii", `Ascii); ("md", `Md); ("csv", `Csv) ]) `Ascii
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,ascii), $(b,md) or $(b,csv).")
  in
  let run verbose from format =
    setup_log verbose;
    match Core.Runlog.load from with
    | Error e ->
      Fmt.epr "%s: %s@." from e;
      exit 2
    | Ok l -> render_ledger_result ~format ~path:from l
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Rebuild the paper's tables and figures purely from a run ledger \
          (no re-execution), stamped with the ledger's provenance: path, \
          schema, campaign kind, seed, command line, creation time and \
          git version.")
    Term.(const run $ verbose $ from_term $ format_term)

let compare_cmd =
  let base_term =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline campaign ledger.")
  in
  let cand_term =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CANDIDATE" ~doc:"Candidate campaign ledger.")
  in
  let run verbose tolerance base cand =
    setup_log verbose;
    require_tolerance "tolerance" tolerance;
    let rows_of path =
      match Core.Runlog.load path with
      | Error e ->
        Fmt.epr "%s: %s@." path e;
        exit 2
      | Ok l -> (
        match l.Core.Runlog.result with
        | Some ("campaign", data) -> (
          match Core.Campaign.rows_of_json data with
          | Ok rows -> (l.Core.Runlog.header, rows)
          | Error e ->
            Fmt.epr "%s: cannot decode campaign result: %s@." path e;
            exit 2)
        | Some (k, _) ->
          Fmt.epr
            "%s holds a %S result; compare needs campaign ledgers (from \
             test or table 5)@."
            path k;
          exit 2
        | None -> no_result ~path l.Core.Runlog.header)
    in
    let bh, baseline = rows_of base in
    let ch, candidate = rows_of cand in
    Fmt.pr "baseline:  %s (campaign %S, seed %d)@." base
      bh.Core.Runlog.campaign bh.Core.Runlog.seed;
    Fmt.pr "candidate: %s (campaign %S, seed %d)@." cand
      ch.Core.Runlog.campaign ch.Core.Runlog.seed;
    let c = Core.Report.compare_campaigns ~tolerance ~baseline ~candidate in
    Core.Report.pp_comparison Fmt.stdout c;
    if c.Core.Report.regressions <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two campaign ledgers cell by cell.  A cell whose \
          error-exposure rate drops beyond the tolerance — or a missing \
          row or cell — is a regression (the testing environment lost \
          effectiveness); exits 1 when any regression is found, for CI.")
    Term.(const run $ verbose $ tolerance_term $ base_term $ cand_term)

(* `gpuwmm status`: the operator's live view of a running (or finished)
   fleet, reassembled from the .hb heartbeat sidecars alone — no
   connection to the campaign process needed, so it works on a
   campaign started elsewhere, after the driver died, or on sidecars
   copied off the machine. *)
let status_cmd =
  let paths_term =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "What to watch: a directory (scanned for $(b,*.hb) sidecars), \
             a $(b,.hb) stream, or a campaign ledger (its $(b,.hb) sidecar \
             is looked up next to it).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print one snapshot and exit (exit 1 if any worker is dead) \
             instead of watching live.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the snapshot as JSON (the /status document) on stdout; \
             implies $(b,--once).")
  in
  let interval_term =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh interval of the live view.")
  in
  let resolve path =
    if Sys.file_exists path && Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".hb")
      |> List.map (Filename.concat path)
      |> List.sort compare
    else if Filename.check_suffix path ".hb" then [ path ]
    else [ Core.Heartbeat.hb_path path ]
  in
  let run verbose paths once json interval =
    setup_log verbose;
    require_finite "interval" interval;
    let hb_paths = List.concat_map resolve paths in
    if hb_paths = [] then begin
      Fmt.epr "no heartbeat streams found under %s@."
        (String.concat ", " paths);
      exit 1
    end;
    let det = Core.Runlog.deterministic_mode () in
    let now () = if det then 0.0 else Unix.gettimeofday () in
    let load () = Core.Fleetview.load ~now:(now ()) hb_paths in
    if json then begin
      let fleet = load () in
      print_string
        (Core.Json.to_string (Core.Fleetview.render_json fleet) ^ "\n");
      if fleet.Core.Fleetview.f_dead > 0 then exit 1
    end
    else if once then begin
      let fleet = load () in
      print_string (Core.Fleetview.render_ascii fleet);
      if fleet.Core.Fleetview.f_dead > 0 then exit 1
    end
    else begin
      let interval = Float.max 0.2 interval in
      let tty = Unix.isatty Unix.stdout in
      let rec watch () =
        let fleet = load () in
        if tty then print_string "\027[H\027[2J";
        print_string (Core.Fleetview.render_ascii fleet);
        flush stdout;
        (* Stop once every stream has delivered its orderly final beat
           (or died): the fleet is over and the view is final. *)
        let settled =
          fleet.Core.Fleetview.workers <> []
          && List.for_all
               (fun w ->
                 match w.Core.Fleetview.w_liveness with
                 | Core.Heartbeat.Done | Core.Heartbeat.Dead -> true
                 | _ -> false)
               fleet.Core.Fleetview.workers
        in
        if settled then begin
          if fleet.Core.Fleetview.f_dead > 0 then exit 1
        end
        else begin
          Unix.sleepf interval;
          watch ()
        end
      in
      watch ()
    end
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show live per-shard progress of a running campaign from its \
          heartbeat sidecars: progress bars, rates, ETAs, stragglers, and \
          dead-worker detection (a worker quiet for two heartbeat \
          intervals is flagged dead).")
    Term.(const run $ verbose $ paths_term $ once $ json $ interval_term)

(* ------------------------------------------------------------------ *)
(* The campaign service: `serve` (the daemon) and its HTTP clients
   `submit` and `jobs`.                                                 *)

let port_term =
  Arg.(
    value
    & opt int 8080
    & info [ "port" ] ~docv:"PORT" ~doc:"Port of a running gpuwmm serve.")

let addr_term =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "addr" ] ~docv:"ADDR" ~doc:"Address of a running gpuwmm serve.")

let fetch_or_die ?meth ?body ~addr ~port path =
  match Core.Httpd.fetch ?meth ?body ~addr ~port path with
  | Ok (status, body) -> (status, body)
  | Error fe ->
    Fmt.epr "gpuwmm serve at %s:%d: %s@." addr port
      (Core.Httpd.fetch_error_message fe);
    exit 1

(* A daemon document the client cannot read is an error, never a
   guess. *)
let decode_or_die what codec body =
  match Result.bind (Core.Json.of_string body) (Core.Codec.decode codec) with
  | Ok v -> v
  | Error e ->
    Fmt.epr "malformed %s (%s): %s@." what e (String.trim body);
    exit 1

let serve_cmd =
  let dir =
    Arg.(
      value
      & opt string "gpuwmm-serve"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "State directory: the queue journal ($(b,queue.jsonl)), \
             campaign ledgers, shard ledgers and heartbeat sidecars all \
             live here.  Restarting with the same directory resumes the \
             queue.")
  in
  let listen =
    Arg.(
      value
      & opt int 0
      & info [ "listen" ] ~docv:"PORT"
          ~doc:"Port to serve on; 0 (the default) picks a free port, \
                printed on the startup banner.")
  in
  let workers =
    Arg.(
      value
      & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Concurrent worker leases across all campaigns (1..%d)."
               Core.Exec.max_jobs))
  in
  let lease =
    Arg.(
      value
      & opt float 30.0
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Lease deadline per shard work unit; a worker still running \
             past it is killed and its shard requeued.")
  in
  let backoff =
    Arg.(
      value
      & opt float Core.Procs.default_backoff_base_s
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base of the capped exponential requeue backoff (seed-derived \
             jitter, doubling per failed attempt, exponent capped).")
  in
  let max_attempts =
    Arg.(
      value
      & opt int Core.Procs.default_attempts
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Default lease attempts per shard before it is quarantined as \
             failed; submissions can override per campaign.")
  in
  let until_idle =
    Arg.(
      value & flag
      & info [ "until-idle" ]
          ~doc:
            "Exit once every submitted campaign reaches a terminal state \
             (exit 0 all clean, 3 otherwise) instead of serving until \
             SIGTERM.")
  in
  let run verbose quiet dir listen workers lease backoff max_attempts
      until_idle =
    setup_log ~quiet verbose;
    require_finite "lease" lease;
    require_finite "backoff" backoff;
    let cfg =
      { Core.Serve.default with
        Core.Serve.dir;
        port = listen;
        (* Each worker's exit pipe is select()ed, which cannot watch
           descriptors at or above 1024. *)
        max_workers = Core.Exec.clamp_jobs workers;
        lease_s = Float.max 1.0 lease;
        backoff_base_s = Float.max 0.0 backoff;
        max_attempts = Int.max 1 max_attempts;
        until_idle;
        quiet }
    in
    exit (Core.Serve.run cfg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a crash-surviving campaign daemon: accept submissions over \
          HTTP ($(b,POST /submit)), persist them to a durable queue \
          journal, execute shard work units under worker leases with \
          retry/backoff and quarantine, and merge finished campaigns \
          into byte-identical ledgers.  Kill it (even -9) and restart \
          with the same --dir: the journal replays, completed shards are \
          recognised from their ledgers, and in-flight leases are \
          revoked and requeued.")
    Term.(
      const run $ verbose $ quiet $ dir $ listen $ workers $ lease $ backoff
      $ max_attempts $ until_idle)

let submit_cmd =
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N") in
  let env_name =
    Arg.(value & opt string "sys-str+" & info [ "env" ] ~docv:"ENV")
  in
  let app_term =
    Arg.(
      value
      & opt (some app_conv) None
      & info [ "app" ] ~docv:"APP" ~doc:"Single application (default: all).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Shard count for this campaign, at most one per cell.")
  in
  let priority =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"P" ~doc:"Higher leases first.")
  in
  let max_attempts =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Override the daemon's attempt budget for this campaign.")
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:
            "Poll the daemon until the campaign reaches a terminal state; \
             exit 0 for done, 3 for degraded, 4 for failed.")
  in
  let run verbose quiet addr port seed chip app runs env_name workers
      priority max_attempts wait =
    setup_log ~quiet verbose;
    let spec =
      { Core.Queue.id = ""; kind = "test"; chip = chip.Gpusim.Chip.name;
        app = Option.map (fun a -> a.Apps.App.name) app; runs; env = env_name;
        seed; workers; priority; max_attempts = 0 }
    in
    let body =
      Core.Json.to_string
        (Core.Codec.encode Core.Serve.submission (spec, max_attempts))
    in
    let status, resp =
      fetch_or_die ~meth:"POST" ~body ~addr ~port "/submit"
    in
    if status <> 200 then begin
      Fmt.epr "submission rejected (%d): %s@." status (String.trim resp);
      exit 1
    end;
    (* The daemon reports the shards it enqueued, which can be fewer
       than --workers. *)
    let id, workers =
      decode_or_die "daemon response" Core.Serve.accepted resp
    in
    Fmt.pr "submitted %s (%s %s, %d runs, %d worker(s))@." id
      chip.Gpusim.Chip.name env_name runs workers;
    if wait then begin
      (* A restarting daemon replays its journal, so the id reappears
         within seconds; an id still missing after [missing_s] means the
         daemon lost the queue (restarted with a different --dir,
         journal deleted) and waiting forever would never resolve. *)
      let poll_s = 0.1 and missing_s = 10.0 in
      let rec poll missing_since =
        let _, body = fetch_or_die ~addr ~port "/jobs" in
        match
          List.find_opt
            (fun ((s : Core.Queue.spec), _) -> s.id = id)
            (decode_or_die "/jobs document" Core.Serve.jobs body)
        with
        | None ->
          let now = Unix.gettimeofday () in
          let since = Option.value missing_since ~default:now in
          if now -. since >= missing_s then begin
            Fmt.epr
              "%s missing from the daemon's queue for %.0f s; the daemon \
               may have restarted with a different --dir or lost its \
               journal@."
              id missing_s;
            exit 1
          end;
          Unix.sleepf poll_s;
          poll (Some since)
        | Some (_, { status = "done" | "degraded" | "failed" as st; ledger; _ }
          ) ->
          Fmt.pr "%s finished: %s%s@." id st
            (match ledger with Some l -> "  (ledger " ^ l ^ ")" | None -> "");
          if st = "done" then exit 0
          else if st = "degraded" then exit Core.Exec.exit_degraded
          else exit Core.Exec.exit_failed
        | Some _ ->
          Unix.sleepf poll_s;
          poll None
      in
      poll None
    end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a test campaign to a running $(b,gpuwmm serve) daemon \
          over HTTP.")
    Term.(
      const run $ verbose $ quiet $ addr_term $ port_term $ seed $ chip
      $ app_term $ runs $ env_name $ workers $ priority $ max_attempts
      $ wait)

let jobs_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the daemon's raw /jobs document.")
  in
  let run verbose quiet addr port json_out =
    setup_log ~quiet verbose;
    let _, body = fetch_or_die ~addr ~port "/jobs" in
    if json_out then print_string body
    else
      match decode_or_die "/jobs document" Core.Serve.jobs body with
      | [] -> Fmt.pr "queue empty@."
      | jobs ->
        List.iter
          (fun ((s : Core.Queue.spec), (st : Core.Serve.job_status)) ->
            Fmt.pr "%-8s %-9s %d/%d shard(s)  %s %s runs=%d seed=%d%s@." s.id
              st.status st.shards_done s.workers s.chip s.env s.runs s.seed
              (match st.ledger with Some l -> "  ledger " ^ l | None -> ""))
          jobs
  in
  Cmd.v
    (Cmd.info "jobs"
       ~doc:"List the queue of a running $(b,gpuwmm serve) daemon.")
    Term.(const run $ verbose $ quiet $ addr_term $ port_term $ json)

let main =
  Cmd.group
    (Cmd.info "gpuwmm" ~version:"1.0.0"
       ~doc:
         "Exposing errors related to weak memory in (simulated) GPU \
          applications — reproduction of Sorensen & Donaldson, PLDI 2016.")
    [ chips_cmd; litmus_cmd; run_litmus_cmd; check_cmd; tune_cmd; test_cmd;
      harden_cmd;
      target_cmd; trace_cmd; ablate_cmd; inspect_cmd; table_cmd; figure_cmd;
      chaos_cmd; status_cmd; merge_cmd; report_cmd; compare_cmd; serve_cmd;
      submit_cmd; jobs_cmd ]

let () = exit (Cmd.eval main)
