(* How a state record reaches and leaves disk.

   Every file the repo keeps state in is JSONL, one JSON record per
   line: run ledgers (Runlog), the serve queue journal (Queue) and the
   per-worker heartbeat streams (Heartbeat).  This module is the only
   code that writes, heals or reads those lines, so all three share one
   crash contract: a crash cuts at most the final line short (a torn
   tail); the strict reader drops and flags it, and [append] heals it
   before it writes, so a new record never glues onto a fragment. *)

(* ------------------------------------------------------------------ *)
(* Ledger writer                                                        *)

type writer = out_channel

let create path = open_out path

type line = string

let line = Json.to_string

let output_line w l =
  output_string w l;
  output_char w '\n'

let output w j = output_line w (line j)

let flush = Stdlib.flush
let close = close_out

(* ------------------------------------------------------------------ *)
(* Byte access                                                          *)

(* Up to [len] bytes from offset [off]: fewer if the file ends first. *)
let read_at fd off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go got =
    let n = if got = len then 0 else Unix.read fd b got (len - got) in
    if n = 0 then Bytes.sub_string b 0 got else go (got + n)
  in
  go 0

(* The last line of the first [stop] bytes that [f] maps to [Some],
   read backwards in windows doubling from 4 KiB: an hour-long
   heartbeat stream is thousands of lines, and the supervisor asks for
   the newest one on every tick. *)
let find_back fd f stop =
  let rec back stop window =
    let lo = Int.max 0 (stop - window) in
    let lines = String.split_on_char '\n' (read_at fd lo (stop - lo)) in
    (* Unless the window reaches the start of the file, its first line
       may begin before [lo]: leave it to the next window. *)
    let first, whole =
      if lo = 0 then ("", lines) else (List.hd lines, List.tl lines)
    in
    match List.find_map f (List.rev whole) with
    | Some r -> Some r
    | None when lo = 0 -> None
    | None -> back (lo + String.length first) (2 * window)
  in
  back stop 4096

(* ------------------------------------------------------------------ *)
(* Append                                                               *)

(* One open-append-write-close per record, so a crash leaves no
   dangling descriptor.  A file that does not end in '\n' was cut by a
   crash: its final line is completed when it is a whole record (the
   cut fell just before the '\n') and cut off when it is a fragment.
   Either way the record then starts on a fresh line and lands in one
   write. *)
let append path j =
  let fd =
    Unix.openfile path
      [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let line = Json.to_string j ^ "\n" in
      let size = (Unix.fstat fd).Unix.st_size in
      let line =
        if size = 0 || read_at fd (size - 1) 1 = "\n" then line
        else
          match find_back fd Option.some size with
          | Some tail when Result.is_error (Json.of_string tail) ->
            Unix.ftruncate fd (size - String.length tail);
            line
          | _ -> "\n" ^ line
      in
      ignore (Unix.write_substring fd line 0 (String.length line)))

(* ------------------------------------------------------------------ *)
(* Readers                                                              *)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error e

let decode_line decode line = Result.bind (Json.of_string line) decode

let parse decode text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let n = List.length lines in
  let rec go i acc = function
    | [] -> Ok (List.rev acc, false)
    | line :: rest -> (
      match decode_line decode line with
      | Ok r -> go (i + 1) (r :: acc) rest
      | Error _ when i = n -> Ok (List.rev acc, true)
      | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  go 1 [] lines

let lenient decode path =
  match read path with
  | Error _ -> []
  | Ok text ->
    List.filter_map
      (fun l -> Result.to_option (decode_line decode l))
      (String.split_on_char '\n' text)

let last decode path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          find_back fd
            (fun l -> Result.to_option (decode_line decode l))
            (Unix.fstat fd).Unix.st_size
        with Unix.Unix_error _ -> None)
