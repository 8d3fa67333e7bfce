let digest_string s = Digest.to_hex (Digest.string s)

let digest_file path = digest_string (Common.read_file path)

type book = { tbl : (string, string) Hashtbl.t; recording : bool }

let recording () = { tbl = Hashtbl.create 64; recording = true }

let check b ~key digest =
  match Hashtbl.find_opt b.tbl key with
  | None when b.recording ->
    Hashtbl.replace b.tbl key digest;
    Ok ()
  | None -> Error (Printf.sprintf "%s: no reference digest recorded" key)
  | Some expected when expected = digest -> Ok ()
  | Some expected ->
    Error
      (Printf.sprintf "%s: digest %s differs from the reference %s" key digest
         expected)

(* One "key<TAB>digest" line per record. *)
let load path =
  let b = { tbl = Hashtbl.create 64; recording = false } in
  (match Common.read_file path with
  | exception Sys_error _ -> ()
  | s ->
    List.iter
      (fun line ->
        match String.index_opt line '\t' with
        | Some i ->
          Hashtbl.replace b.tbl (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
        | None -> ())
      (String.split_on_char '\n' s));
  b

let save b path =
  let lines =
    List.sort compare (Hashtbl.fold (fun k d acc -> (k ^ "\t" ^ d) :: acc) b.tbl [])
  in
  Common.write_file path (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let campaign_rows path =
  match Core.Runlog.load path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok l -> (
    match (l.Core.Runlog.result, l.Core.Runlog.footer) with
    | _, None -> Error (path ^ ": no footer (interrupted ledger)")
    | None, _ -> Error (path ^ ": no result record")
    | Some (_, data), Some f when f.Core.Runlog.quarantined = 0 -> (
      match Core.Campaign.rows_of_json data with
      | Ok rows -> Ok rows
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
    | Some _, Some f ->
      Error
        (Printf.sprintf "%s: %d quarantined job(s)" path
           f.Core.Runlog.quarantined))

let rows_digest rows =
  digest_string (Core.Json.to_string (Core.Campaign.rows_to_json rows))

let tuning_digest (r : Core.Tuning.result) =
  digest_string
    (Core.Json.to_string (Core.Tuning.result_to_json { r with elapsed_s = 0.0 }))

let tuning_result path =
  match Core.Runlog.load path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok l -> (
    match (l.Core.Runlog.result, l.Core.Runlog.footer) with
    | _, None -> Error (path ^ ": no footer (interrupted ledger)")
    | None, _ -> Error (path ^ ": no result record")
    | Some (_, data), Some _ -> (
      match Core.Tuning.result_of_json data with
      | Ok r -> Ok r
      | Error e -> Error (Printf.sprintf "%s: %s" path e)))
