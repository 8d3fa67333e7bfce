let schema_version = 1

let deterministic_mode () =
  match Sys.getenv_opt "GPUWMM_LEDGER_DETERMINISTIC" with
  | None | Some ("" | "0" | "false") -> false
  | Some _ -> true

(* ------------------------------------------------------------------ *)
(* Records                                                              *)

type header = {
  schema : int;
  campaign : string;
  argv : string list;
  seed : int;
  jobs : int;
  grid : Json.t;
  git : string option;
  created : float;
  shard : string option;
  merged : string list option;
}

let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> (
      match line with Some "" | None -> None | some -> some)
    | _ -> None
  with _ -> None

(* [shard] survives deterministic zeroing — it is part of the plan, not
   of the wall clock — so shard ledgers of the same shard are still
   byte-comparable across runs. *)
let make_header ?argv ?(jobs = 1) ?shard ~campaign ~seed ~grid () =
  if deterministic_mode () then
    { schema = schema_version; campaign; argv = []; seed; jobs = 0; grid;
      git = None; created = 0.0; shard; merged = None }
  else
    let argv =
      match argv with Some a -> a | None -> Array.to_list Sys.argv
    in
    { schema = schema_version; campaign; argv; seed; jobs; grid;
      git = git_describe (); created = Unix.gettimeofday (); shard;
      merged = None }

(* [shard]/[merged] are emitted only away from [None] so unsharded
   ledgers — including the CI golden one — keep their historical bytes,
   and a merged deterministic ledger stays byte-identical to the
   single-process run (merge provenance only exists outside
   deterministic mode). *)
let header =
  let schema =
    Codec.conv Fun.id
      (fun n ->
        if n = schema_version then Ok n
        else Error (Printf.sprintf "unsupported ledger schema %d" n))
      Codec.int
  in
  Codec.(
    obj (fun schema campaign seed jobs argv git created grid shard merged ->
        { schema; campaign; seed; jobs; argv; git; created; grid; shard;
          merged })
    |> mem "schema" schema (fun h -> h.schema)
    |> mem "campaign" string (fun h -> h.campaign)
    |> mem "seed" int (fun h -> h.seed)
    |> mem "jobs" int (fun h -> h.jobs)
    |> mem "argv" (list string) (fun h -> h.argv)
    |> mem "git" (nullable string) (fun h -> h.git)
    |> mem "created" float (fun h -> h.created)
    |> mem "grid" json (fun h -> h.grid)
    |> opt "shard" string (fun h -> h.shard)
    |> opt "merged" (list string) (fun h -> h.merged)
    |> tag "rec" "header" |> seal)

type job = {
  phase : string;
  index : int;
  seed : int;
  errors : int;
  duration_s : float;
  result : Json.t;
  attempts : int;
  failed : string option;
}

(* [attempts] and [failed] are emitted only away from their defaults so
   that supervision leaves fault-free ledgers byte-identical (the CI
   golden ledger is compared with cmp). *)
let job =
  Codec.(
    obj (fun phase index seed errors duration_s attempts failed result ->
        { phase; index; seed; errors; duration_s; result; attempts; failed })
    |> mem "phase" string (fun j -> j.phase)
    |> mem "i" int (fun j -> j.index)
    |> mem "seed" int (fun j -> j.seed)
    |> mem "errors" int (fun j -> j.errors)
    |> mem "dur_s" float (fun j -> j.duration_s)
    |> dflt "attempts" int ~default:1 (fun j -> j.attempts)
    |> opt "failed" string (fun j -> j.failed)
    |> mem "result" json (fun j -> j.result)
    |> tag "rec" "job" |> seal)

type footer = {
  total_jobs : int;
  total_errors : int;
  quarantined : int;
  wall_s : float;
  telemetry : Json.t;
}

let footer =
  Codec.(
    obj (fun total_jobs total_errors quarantined wall_s telemetry ->
        { total_jobs; total_errors; quarantined; wall_s; telemetry })
    |> mem "jobs" int (fun f -> f.total_jobs)
    |> mem "errors" int (fun f -> f.total_errors)
    |> dflt "quarantined" int ~default:0 (fun f -> f.quarantined)
    |> mem "wall_s" float (fun f -> f.wall_s)
    |> mem "telemetry" json (fun f -> f.telemetry)
    |> tag "rec" "footer" |> seal)

let result =
  Codec.(
    obj (fun kind data -> (kind, data))
    |> mem "kind" string fst |> mem "data" json snd
    |> tag "rec" "result" |> seal)

type ledger = {
  header : header;
  jobs : job list;
  result : (string * Json.t) option;
  footer : footer option;
  torn : bool;
}

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)

type t = {
  oc : Jsonl.writer;
  file : string;
  mu : Mutex.t;
  deterministic : bool;
  mutable phase : string;
  mutable next : int;  (* lowest flush rank of [phase] not yet on disk *)
  pending : (int, job) Hashtbl.t;  (* completed but blocked by a gap *)
  mutable jobs_written : int;
  mutable errors_sum : int;
  mutable failed_sum : int;
  t0 : float;
  mutable closed : bool;
}

let create ?deterministic ~path h =
  let deterministic =
    match deterministic with Some d -> d | None -> deterministic_mode ()
  in
  let oc = Jsonl.create path in
  Jsonl.output oc (Codec.encode header h);
  Jsonl.flush oc;
  { oc; file = path; mu = Mutex.create (); deterministic; phase = "";
    next = 0; pending = Hashtbl.create 64; jobs_written = 0;
    errors_sum = 0; failed_sum = 0; t0 = Unix.gettimeofday ();
    closed = false }

let path t = t.file

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* [pos] is the record's flush rank within its phase: the reorder
   buffer releases rank r only once ranks 0..r-1 are on disk.  It
   defaults to the plan index — for an unsharded run they coincide —
   but a k/N shard writes only the indices it owns, so its dense
   shard-local rank (Shard.rank) keys the buffer while the record keeps
   the global plan index. *)
let append_job ?pos t (r : job) =
  locked t @@ fun () ->
  if t.closed then invalid_arg "Runlog.append_job: ledger is closed";
  if r.phase <> t.phase then begin
    if Hashtbl.length t.pending > 0 then
      invalid_arg
        (Printf.sprintf
           "Runlog.append_job: phase %S left %d out-of-order record(s) \
            pending"
           t.phase (Hashtbl.length t.pending));
    t.phase <- r.phase;
    t.next <- 0
  end;
  let r = if t.deterministic then { r with duration_s = 0.0 } else r in
  Hashtbl.replace t.pending (Option.value pos ~default:r.index) r;
  let drained = ref false in
  while Hashtbl.mem t.pending t.next do
    let j = Hashtbl.find t.pending t.next in
    Hashtbl.remove t.pending t.next;
    Jsonl.output t.oc (Codec.encode job j);
    t.jobs_written <- t.jobs_written + 1;
    t.errors_sum <- t.errors_sum + j.errors;
    if j.failed <> None then t.failed_sum <- t.failed_sum + 1;
    t.next <- t.next + 1;
    drained := true
  done;
  if !drained then Jsonl.flush t.oc

let append_result t ~kind data =
  locked t @@ fun () ->
  if t.closed then invalid_arg "Runlog.append_result: ledger is closed";
  Jsonl.output t.oc (Codec.encode result (kind, data));
  Jsonl.flush t.oc

let close t =
  locked t @@ fun () ->
  if not t.closed then begin
    if Hashtbl.length t.pending > 0 then
      invalid_arg
        (Printf.sprintf
           "Runlog.close: %d out-of-order job record(s) still pending"
           (Hashtbl.length t.pending));
    let wall_s =
      if t.deterministic then 0.0 else Unix.gettimeofday () -. t.t0
    in
    let telemetry =
      if t.deterministic then Json.Null
      else Telemetry.snapshot_to_json (Telemetry.snapshot ())
    in
    Jsonl.output t.oc
      (Codec.encode footer
         { total_jobs = t.jobs_written; total_errors = t.errors_sum;
           quarantined = t.failed_sum; wall_s; telemetry });
    Jsonl.close t.oc;
    t.closed <- true
  end

let abort t =
  locked t @@ fun () ->
  if not t.closed then begin
    Jsonl.close t.oc;
    t.closed <- true
  end

(* ------------------------------------------------------------------ *)
(* Loading                                                              *)

let record_of_json j =
  let as_ c f = Result.map f (Codec.decode c j) in
  match Json.member "rec" j with
  | Some (Json.String "header") -> as_ header (fun h -> `Header h)
  | Some (Json.String "job") -> as_ job (fun r -> `Job r)
  | Some (Json.String "result") -> as_ result (fun r -> `Result r)
  | Some (Json.String "footer") -> as_ footer (fun f -> `Footer f)
  | _ -> Error "unknown record type"

let parse text =
  match Jsonl.parse record_of_json text with
  | Error e -> Error ("ledger " ^ e)
  | Ok ([], false) -> Error "empty ledger"
  | Ok (`Header header :: rest, torn) ->
    let rec go line jobs result footer = function
      | [] -> Ok { header; jobs = List.rev jobs; result; footer; torn }
      | `Job job :: tl -> go (line + 1) (job :: jobs) result footer tl
      | `Result r :: tl -> go (line + 1) jobs (Some r) footer tl
      | `Footer f :: tl -> go (line + 1) jobs result (Some f) tl
      | `Header _ :: _ ->
        Error (Printf.sprintf "ledger line %d: a second header record" line)
    in
    go 2 [] None None rest
  | Ok _ -> Error "first ledger line is not a header record"

let load file = Result.bind (Jsonl.read file) parse

(* ------------------------------------------------------------------ *)
(* Resumption                                                           *)

type cache = (string * int, job) Hashtbl.t

let cache_of_ledger l =
  let c = Hashtbl.create (List.length l.jobs) in
  List.iter (fun (j : job) -> Hashtbl.replace c (j.phase, j.index) j) l.jobs;
  c

let cache_size = Hashtbl.length

type journal = {
  sink : t option;
  cache : cache option;
  origin : string option;  (* the resume ledger's path, for messages *)
  shard : Shard.t option;
  phase : string;
}

let journal ?sink ?cache ?origin ?shard phase =
  { sink; cache; origin; shard; phase }
let extend j suffix = { j with phase = j.phase ^ suffix }

let origin_name jn = Option.value ~default:"resume ledger" jn.origin

type 'a codec = { codec : 'a Codec.t; errors_of : 'a -> int }

let int_codec = { codec = Codec.int; errors_of = Fun.id }
let bool_codec = { codec = Codec.bool; errors_of = (fun ok -> if ok then 0 else 1) }

let cached_value jn ~codec ~index ~seed =
  match jn.cache with
  | None -> None
  | Some c -> (
    match Hashtbl.find_opt c (jn.phase, index) with
    | None -> None
    | Some r when r.failed <> None ->
      (* A quarantined record satisfies the ledger's plan-order stream
         but carries no result: resuming re-runs the job, which is how a
         degraded campaign recovers. *)
      None
    | Some r ->
      if r.seed <> seed then
        failwith
          (Printf.sprintf
             "%s: cached job %s/%d seed mismatch: the ledger records \
              seed %d, this invocation plans seed %d — refusing to \
              resume a different campaign"
             (origin_name jn) jn.phase index r.seed seed);
      (match Codec.decode codec.codec r.result with
      | Ok v -> Some (v, r)
      | Error e ->
        failwith
          (Printf.sprintf "%s: cached job %s/%d does not decode: %s"
             (origin_name jn) jn.phase index e)))

let replay ?pos jn r = Option.iter (fun s -> append_job ?pos s r) jn.sink

let record jn ?pos ?(attempts = 1) ~index ~seed ~errors ~duration_s result =
  Option.iter
    (fun s ->
      append_job ?pos s
        { phase = jn.phase; index; seed; errors; duration_s; result;
          attempts; failed = None })
    jn.sink

let record_failure jn ?pos ~index ~seed ~attempts ~duration_s reason =
  Option.iter
    (fun s ->
      append_job ?pos s
        { phase = jn.phase; index; seed; errors = 0; duration_s;
          result = Json.Null; attempts; failed = Some reason })
    jn.sink

(* One-stop resume validation with messages that name the ledger and
   both sides of every mismatch (golden-tested wording; keep stable). *)
let validate_resume ?shard (l : ledger) ~path ~campaign ~seed ~grid =
  let h = l.header in
  let shard_name = function None -> "unsharded" | Some s -> "shard " ^ s in
  if h.shard <> shard then
    Error
      (Printf.sprintf
         "%s: shard mismatch: the ledger records an %s run, this \
          invocation is %s"
         path (shard_name h.shard) (shard_name shard))
  else if h.campaign <> campaign then
    Error
      (Printf.sprintf
         "%s: campaign kind mismatch: the ledger records a %S campaign, \
          this invocation is %S"
         path h.campaign campaign)
  else if h.seed <> seed then
    Error
      (Printf.sprintf
         "%s: seed mismatch: the ledger was run with --seed %d, this \
          invocation uses --seed %d"
         path h.seed seed)
  else if h.grid <> grid then
    Error
      (Printf.sprintf
         "%s: parameter grid mismatch: the ledger records %s, this \
          invocation plans %s"
         path (Json.to_string h.grid) (Json.to_string grid))
  else Ok ()

let memo journal ~codec ~index ~seed f =
  match journal with
  | None -> f ()
  | Some jn -> (
    match cached_value jn ~codec ~index ~seed with
    | Some (v, r) ->
      replay jn r;
      v
    | None ->
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let duration_s = Unix.gettimeofday () -. t0 in
      record jn ~index ~seed ~errors:(codec.errors_of v) ~duration_s
        (Codec.encode codec.codec v);
      v)
