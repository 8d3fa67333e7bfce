(* Combine k/N shard ledgers into one canonical ledger.

   The contract is byte-identity: for a deterministic
   (GPUWMM_LEDGER_DETERMINISTIC) campaign, merging the N shard ledgers
   produces exactly the bytes a single-process run of the same campaign
   would have written.  That holds because

   - shard job records already carry their global plan index and the
     unsharded per-job seed, so replaying them through a fresh writer
     in plan order reproduces the canonical job stream;
   - the shard header differs from the canonical one only in its
     [shard] field (deterministic mode zeroes everything else), which
     the merge strips;
   - the footer totals are sums over the written job records, and a
     partition sums to the same totals;
   - only test and table 5 campaigns shard, and their result record is
     a pure function of the plan-order cell list
     (Campaign.rows_of_cells), so it can be reconstructed without
     re-running anything.

   Everything else is fail-closed: another campaign kind, a missing
   shard, an overlapping or missing job, or shards whose plan headers
   disagree abort the merge with no output file written. *)

let ( let* ) = Result.bind

type outcome = {
  out_path : string;
  shards : int;
  jobs : int;
  quarantined : int;
}

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* Loading and validating the shard set                                 *)

type src = {
  src_path : string;
  src_shard : Shard.t;
  src_ledger : Runlog.ledger;
}

let load_shard path =
  let* l =
    match Runlog.load path with
    | Ok l -> Ok l
    | Error e -> err "%s: %s" path e
  in
  let* spec =
    match l.Runlog.header.Runlog.shard with
    | Some s -> Ok s
    | None ->
      err "%s: not a shard ledger (no shard field in its header)" path
  in
  let* sh =
    match Shard.parse spec with
    | Ok sh -> Ok sh
    | Error e -> err "%s: %s" path e
  in
  let* () =
    match l.Runlog.header.Runlog.campaign with
    | "test" | "table5" -> Ok ()
    | kind ->
      err "%s: a %S campaign does not merge: only test and table 5 \
           campaigns shard"
        path kind
  in
  (* A shard that finished writes a footer; a killed or still-running
     worker does not.  Refusing footer-less shards here catches tail
     truncation that the gap walk cannot see (the last owned jobs of a
     shard are simply absent, not out of sequence). *)
  let* () =
    match l.Runlog.footer with
    | Some _ when not l.Runlog.torn -> Ok ()
    | _ ->
      err
        "%s: shard %s is incomplete (footer missing) — resume the \
         interrupted shard before merging"
        path (Shard.to_string sh)
  in
  Ok { src_path = path; src_shard = sh; src_ledger = l }

(* The shard set must be exactly {1..N} of one N, and every shard must
   describe the same plan (schema, campaign kind, seed, grid — the
   fields validate_resume checks; argv/created legitimately differ
   between worker processes). *)
let validate_set srcs =
  let* first =
    match srcs with
    | [] -> Error "merge needs at least one shard ledger"
    | s :: _ -> Ok s
  in
  let n = first.src_shard.Shard.n in
  let h0 = first.src_ledger.Runlog.header in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let sh = s.src_shard in
        if sh.Shard.n <> n then
          err "%s: shard %s does not belong to the same %d-way split as %s \
               (%s)"
            s.src_path
            (Shard.to_string sh)
            n
            first.src_path
            (Shard.to_string first.src_shard)
        else
          let h = s.src_ledger.Runlog.header in
          if h.Runlog.schema <> h0.Runlog.schema then
            err "%s: ledger schema %d differs from %s's %d" s.src_path
              h.Runlog.schema first.src_path h0.Runlog.schema
          else if h.Runlog.campaign <> h0.Runlog.campaign then
            err "%s: campaign kind mismatch: %S vs %s's %S" s.src_path
              h.Runlog.campaign first.src_path h0.Runlog.campaign
          else if h.Runlog.seed <> h0.Runlog.seed then
            err "%s: seed mismatch: %d vs %s's %d" s.src_path h.Runlog.seed
              first.src_path h0.Runlog.seed
          else if h.Runlog.grid <> h0.Runlog.grid then
            err "%s: parameter grid mismatch vs %s" s.src_path first.src_path
          else Ok ())
      (Ok ()) srcs
  in
  let by_k = Array.make (n + 1) None in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let k = s.src_shard.Shard.k in
        match by_k.(k) with
        | Some prev ->
          err "shards %s and %s both claim %s — overlapping shard set"
            prev.src_path s.src_path
            (Shard.to_string s.src_shard)
        | None ->
          by_k.(k) <- Some s;
          Ok ())
      (Ok ()) srcs
  in
  let* () =
    let missing = ref [] in
    for k = n downto 1 do
      if by_k.(k) = None then missing := k :: !missing
    done;
    match !missing with
    | [] -> Ok ()
    | ks ->
      err "incomplete shard set: missing shard%s %s of %d"
        (if List.length ks > 1 then "s" else "")
        (String.concat ", " (List.map string_of_int ks))
        n
  in
  Ok (Array.to_list by_k |> List.filter_map Fun.id)

(* ------------------------------------------------------------------ *)
(* Interleaving the job streams                                         *)

(* The one job stream: every shard's records sorted by global plan
   index, checked for overlaps and gaps.  A test or table 5 ledger
   records only campaign cells. *)
let interleave srcs =
  let tagged =
    List.concat_map
      (fun s -> List.map (fun j -> (j, s)) s.src_ledger.Runlog.jobs)
      srcs
  in
  let* () =
    match
      List.find_opt
        (fun ((j : Runlog.job), _) -> j.Runlog.phase <> "campaign")
        tagged
    with
    | Some (j, s) ->
      err "%s: job %d has phase %S, not a campaign cell" s.src_path
        j.Runlog.index j.Runlog.phase
    | None -> Ok ()
  in
  let sorted =
    List.stable_sort
      (fun ((a : Runlog.job), _) ((b : Runlog.job), _) ->
        compare a.Runlog.index b.Runlog.index)
      tagged
  in
  let rec check expect = function
    | [] -> Ok ()
    | ((j : Runlog.job), (s : src)) :: tl ->
      let i = j.Runlog.index in
      if i < expect then
        err "job %d appears in more than one shard ledger (last in %s) — \
             overlapping shards"
          i s.src_path
      else if i > expect then
        err "job %d is missing (stride shard %s owns it) — resume the \
             interrupted shard before merging"
          expect
          (Shard.to_string
             (Shard.make ~k:((expect mod s.src_shard.Shard.n) + 1)
                ~n:s.src_shard.Shard.n ()))
      else check (expect + 1) tl
  in
  let* () = check 0 sorted in
  Ok (List.map fst sorted)

(* ------------------------------------------------------------------ *)
(* Result reconstruction                                                *)

(* A test or table 5 campaign reduces to Table 5 rows by a pure
   regrouping of the plan-order cells, so the merged ledger carries the
   result record the single-process run would have written. *)
let reconstruct_result header (jobs : Runlog.job list) =
  let* cells =
    List.fold_left
      (fun acc (j : Runlog.job) ->
        let* acc = acc in
        match Codec.decode Campaign.cell j.Runlog.result with
        | Ok c -> Ok (c :: acc)
        | Error e -> err "campaign job %d does not decode: %s" j.Runlog.index e)
      (Ok []) jobs
  in
  let* chips, envs, apps_per_row = Campaign.grid_rows header.Runlog.grid in
  let* rows =
    Campaign.rows_of_cells ~chips ~envs ~apps_per_row (List.rev cells)
  in
  Ok ("campaign", Campaign.rows_to_json rows)

(* ------------------------------------------------------------------ *)
(* The merge                                                            *)

(* [out] names an input under another spelling (./a, a symlink, a hard
   link) exactly when both resolve to the same inode. *)
let same_file a b =
  match (Unix.stat a, Unix.stat b) with
  | sa, sb -> sa.Unix.st_dev = sb.Unix.st_dev && sa.Unix.st_ino = sb.Unix.st_ino
  | exception Unix.Unix_error _ -> false

let merge ~out paths =
  let* () =
    match List.find_opt (same_file out) paths with
    | Some p -> err "output %s is the shard ledger %s" out p
    | None -> Ok ()
  in
  let* srcs =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* s = load_shard p in
        Ok (s :: acc))
      (Ok []) paths
  in
  let* srcs = validate_set (List.rev srcs) in
  let* jobs = interleave srcs in
  let quarantined =
    List.length (List.filter (fun (j : Runlog.job) -> j.Runlog.failed <> None) jobs)
  in
  (* validate_set orders the set by k: the head is shard 1. *)
  let h0 = (List.hd srcs).src_ledger.Runlog.header in
  (* Quarantined shards merge to a quarantined (degraded) ledger with no
     result record; `--resume` re-runs exactly those jobs and completes
     it, as for a single-process degraded run. *)
  let* result =
    if quarantined > 0 then Ok None
    else Result.map Option.some (reconstruct_result h0 jobs)
  in
  let header =
    { h0 with
      Runlog.shard = None;
      (* Provenance survives only outside deterministic mode: a merged
         deterministic ledger must be byte-identical to the
         single-process run, which never had a merged field. *)
      merged =
        (if Runlog.deterministic_mode () then None
         else Some (List.map (fun s -> s.src_path) srcs)) }
  in
  let sink = Runlog.create ~path:out header in
  match
    List.iter (Runlog.append_job sink) jobs;
    Option.iter (fun (kind, data) -> Runlog.append_result sink ~kind data) result;
    Runlog.close sink
  with
  | () ->
    Ok
      { out_path = out; shards = List.length srcs; jobs = List.length jobs;
        quarantined }
  | exception e ->
    Runlog.abort sink;
    err "writing %s failed: %s" out (Printexc.to_string e)
