let schema_version = 1

let deterministic_mode () =
  match Sys.getenv_opt "GPUWMM_LEDGER_DETERMINISTIC" with
  | None | Some ("" | "0" | "false") -> false
  | Some _ -> true

(* ------------------------------------------------------------------ *)
(* Decoding helpers                                                     *)

module Dec = struct
  let ( let* ) = Result.bind

  let field k j =
    match Json.member k j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" k)

  let typed name conv k j =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped %s field %S" name k)

  let int k j = typed "int" Json.to_int k j
  let float k j = typed "number" Json.to_float k j
  let bool k j = typed "bool" Json.to_bool k j
  let str k j = typed "string" Json.to_str k j
  let list k j = typed "list" Json.to_list k j

  let opt_int k j =
    match Json.member k j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_int v with
      | Some n -> Ok (Some n)
      | None -> Error (Printf.sprintf "mistyped int field %S" k))

  let opt_str k j =
    match Json.member k j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_str v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "mistyped string field %S" k))

  let all f xs =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      xs (Ok [])
end

open Dec

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
let header_to_json h =
  Json.Assoc
    ([ ("rec", Json.String "header");
       ("schema", Json.Int h.schema);
       ("campaign", Json.String h.campaign);
       ("seed", Json.Int h.seed);
       ("jobs", Json.Int h.jobs);
       ("argv", Json.List (List.map (fun a -> Json.String a) h.argv));
       ("git", match h.git with Some g -> Json.String g | None -> Json.Null);
       ("created", Json.Float h.created);
       ("grid", h.grid) ]
    @ (match h.shard with
      | Some s -> [ ("shard", Json.String s) ]
      | None -> [])
    @ (match h.merged with
      | Some srcs ->
        [ ("merged", Json.List (List.map (fun s -> Json.String s) srcs)) ]
      | None -> []))

let header_of_json j =
  let* schema = int "schema" j in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported ledger schema %d" schema)
  else
    let* campaign = str "campaign" j in
    let* seed = int "seed" j in
    let* jobs = int "jobs" j in
    let* argv_j = list "argv" j in
    let* argv =
      all
        (fun a ->
          match Json.to_str a with
          | Some s -> Ok s
          | None -> Error "mistyped argv element")
        argv_j
    in
    let* git = opt_str "git" j in
    let* created = float "created" j in
    let* grid = field "grid" j in
    let* shard = opt_str "shard" j in
    let* merged =
      match Json.member "merged" j with
      | None | Some Json.Null -> Ok None
      | Some v -> (
        match Json.to_list v with
        | None -> Error "mistyped list field \"merged\""
        | Some xs ->
          let* srcs =
            all
              (fun s ->
                match Json.to_str s with
                | Some s -> Ok s
                | None -> Error "mistyped merged element")
              xs
          in
          Ok (Some srcs))
    in
    Ok { schema; campaign; argv; seed; jobs; grid; git; created; shard;
         merged }

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
let job_to_json j =
  Json.Assoc
    ([ ("rec", Json.String "job");
       ("phase", Json.String j.phase);
       ("i", Json.Int j.index);
       ("seed", Json.Int j.seed);
       ("errors", Json.Int j.errors);
       ("dur_s", Json.Float j.duration_s) ]
    @ (if j.attempts > 1 then [ ("attempts", Json.Int j.attempts) ] else [])
    @ (match j.failed with
      | Some reason -> [ ("failed", Json.String reason) ]
      | None -> [])
    @ [ ("result", j.result) ])

let job_of_json j =
  let* phase = str "phase" j in
  let* index = int "i" j in
  let* seed = int "seed" j in
  let* errors = int "errors" j in
  let* duration_s = float "dur_s" j in
  let* attempts = opt_int "attempts" j in
  let* failed = opt_str "failed" j in
  let* result = field "result" j in
  Ok
    { phase; index; seed; errors; duration_s; result;
      attempts = Option.value ~default:1 attempts; failed }

type footer = {
  total_jobs : int;
  total_errors : int;
  quarantined : int;
  wall_s : float;
  telemetry : Json.t;
}

let footer_to_json f =
  Json.Assoc
    ([ ("rec", Json.String "footer");
       ("jobs", Json.Int f.total_jobs);
       ("errors", Json.Int f.total_errors) ]
    @ (if f.quarantined > 0 then [ ("quarantined", Json.Int f.quarantined) ]
       else [])
    @ [ ("wall_s", Json.Float f.wall_s); ("telemetry", f.telemetry) ])

let footer_of_json j =
  let* total_jobs = int "jobs" j in
  let* total_errors = int "errors" j in
  let* quarantined = opt_int "quarantined" j in
  let* wall_s = float "wall_s" j in
  let* telemetry = field "telemetry" j in
  Ok
    { total_jobs; total_errors;
      quarantined = Option.value ~default:0 quarantined; wall_s; telemetry }

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
  oc : out_channel;
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

let emit_line t json =
  output_string t.oc (Json.to_string json);
  output_char t.oc '\n'

let create ?deterministic ~path header =
  let deterministic =
    match deterministic with Some d -> d | None -> deterministic_mode ()
  in
  let oc = open_out path in
  let t =
    { oc; file = path; mu = Mutex.create (); deterministic; phase = "";
      next = 0; pending = Hashtbl.create 64; jobs_written = 0;
      errors_sum = 0; failed_sum = 0; t0 = Unix.gettimeofday ();
      closed = false }
  in
  emit_line t (header_to_json header);
  flush oc;
  t

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
let append_job ?pos t (job : job) =
  locked t @@ fun () ->
  if t.closed then invalid_arg "Runlog.append_job: ledger is closed";
  if job.phase <> t.phase then begin
    if Hashtbl.length t.pending > 0 then
      invalid_arg
        (Printf.sprintf
           "Runlog.append_job: phase %S left %d out-of-order record(s) \
            pending"
           t.phase (Hashtbl.length t.pending));
    t.phase <- job.phase;
    t.next <- 0
  end;
  let job = if t.deterministic then { job with duration_s = 0.0 } else job in
  Hashtbl.replace t.pending (Option.value pos ~default:job.index) job;
  let drained = ref false in
  while Hashtbl.mem t.pending t.next do
    let j = Hashtbl.find t.pending t.next in
    Hashtbl.remove t.pending t.next;
    emit_line t (job_to_json j);
    t.jobs_written <- t.jobs_written + 1;
    t.errors_sum <- t.errors_sum + j.errors;
    if j.failed <> None then t.failed_sum <- t.failed_sum + 1;
    t.next <- t.next + 1;
    drained := true
  done;
  if !drained then flush t.oc

let append_result t ~kind data =
  locked t @@ fun () ->
  if t.closed then invalid_arg "Runlog.append_result: ledger is closed";
  emit_line t
    (Json.Assoc
       [ ("rec", Json.String "result");
         ("kind", Json.String kind);
         ("data", data) ]);
  flush t.oc

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
    emit_line t
      (footer_to_json
         { total_jobs = t.jobs_written; total_errors = t.errors_sum;
           quarantined = t.failed_sum; wall_s; telemetry });
    flush t.oc;
    close_out t.oc;
    t.closed <- true
  end

let abort t =
  locked t @@ fun () ->
  if not t.closed then begin
    flush t.oc;
    close_out t.oc;
    t.closed <- true
  end

(* ------------------------------------------------------------------ *)
(* Loading                                                              *)

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty ledger"
  | first :: rest ->
    let* hj = Json.of_string first in
    let* header =
      match Json.member "rec" hj with
      | Some (Json.String "header") -> header_of_json hj
      | _ -> Error "first ledger line is not a header record"
    in
    let n = List.length rest in
    let rec go i jobs result footer = function
      | [] -> Ok { header; jobs = List.rev jobs; result; footer; torn = false }
      | line :: tl -> (
        let parsed =
          let* j = Json.of_string line in
          match Json.member "rec" j with
          | Some (Json.String "job") ->
            let* job = job_of_json j in
            Ok (`Job job)
          | Some (Json.String "result") ->
            let* kind = str "kind" j in
            let* data = field "data" j in
            Ok (`Result (kind, data))
          | Some (Json.String "footer") ->
            let* f = footer_of_json j in
            Ok (`Footer f)
          | _ -> Error "unknown record type"
        in
        match parsed with
        | Ok (`Job job) -> go (i + 1) (job :: jobs) result footer tl
        | Ok (`Result r) -> go (i + 1) jobs (Some r) footer tl
        | Ok (`Footer f) -> go (i + 1) jobs result (Some f) tl
        | Error e ->
          if i = n - 1 then
            (* The last line is allowed to be torn: a kill can land
               mid-write.  Everything before it must be intact. *)
            Ok { header; jobs = List.rev jobs; result; footer; torn = true }
          else Error (Printf.sprintf "ledger line %d: %s" (i + 2) e))
    in
    go 0 [] None None rest

let load file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> parse text

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
  phase : string;
}

let journal ?sink ?cache ?origin phase = { sink; cache; origin; phase }
let extend j suffix = { j with phase = j.phase ^ suffix }

let origin_name jn = Option.value ~default:"resume ledger" jn.origin

type 'a codec = {
  encode : 'a -> Json.t;
  decode : Json.t -> ('a, string) result;
  errors_of : 'a -> int;
}

let int_codec =
  { encode = (fun n -> Json.Int n);
    decode =
      (fun j ->
        match Json.to_int j with
        | Some n -> Ok n
        | None -> Error "expected an int payload");
    errors_of = Fun.id }

let bool_codec =
  { encode = (fun b -> Json.Bool b);
    decode =
      (fun j ->
        match Json.to_bool j with
        | Some b -> Ok b
        | None -> Error "expected a bool payload");
    errors_of = (fun ok -> if ok then 0 else 1) }

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
      (match codec.decode r.result with
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

(* Adaptive sequential streams (hardening's check sequence) cannot be
   partitioned — every shard must execute them to reach the same next
   step — so under an ambient shard only shard 1 journals them: the
   merged ledger then carries the stream exactly once. *)
let memo journal ~codec ~index ~seed f =
  let journal =
    match Shard.ambient () with
    | Some s when s.Shard.k <> 1 -> None
    | _ -> journal
  in
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
        (codec.encode v);
      v)
