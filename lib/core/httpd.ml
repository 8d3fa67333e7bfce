(* A deliberately tiny HTTP/1.0 server over Unix sockets — just enough
   to expose /metrics and /status on a campaign, and to accept campaign
   submissions for `gpuwmm serve`, without pulling in a web stack.  One
   accept-loop domain, one short-lived connection per request,
   Connection: close.  Observability must never take the campaign down:
   every per-connection failure is swallowed, and [stop] wakes the
   accept loop through a self-pipe so shutdown cannot hang on a quiet
   port. *)

type response = {
  status : int;
  content_type : string;
  body : string;
}

let respond ?(status = 200) ?(content_type = "text/plain; charset=utf-8") body
    =
  { status; content_type; body }

type request = {
  meth : string;
  path : string;  (* query string stripped *)
  body : string;  (* "" unless the client sent Content-Length *)
}

type t = {
  sock : Unix.file_descr;
  port : int;
  stop_r : Unix.file_descr;  (* self-pipe: read side lives in the loop *)
  stop_w : Unix.file_descr;
  dom : unit Domain.t;
}

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

let write_response fd r =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      r.status (status_text r.status) r.content_type
      (String.length r.body)
  in
  let msg = head ^ r.body in
  let n = String.length msg in
  let pos = ref 0 in
  while !pos < n do
    let written = Unix.write_substring fd msg !pos (n - !pos) in
    if written = 0 then pos := n else pos := !pos + written
  done

let find_head_end s =
  let rec find i =
    if i + 3 >= String.length s then None
    else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
    else find (i + 1)
  in
  if String.length s >= 4 then find 0 else None

(* The head is capped at 8 KiB and bodies at 1 MiB — campaign
   submissions are a few hundred bytes; anything bigger is a client
   error, not a reason to buffer without bound. *)
let max_head = 8192
let max_body = 1 lsl 20

let content_length head =
  let lower = String.lowercase_ascii head in
  let prefix = "content-length:" in
  let rec scan i =
    match String.index_from_opt lower i '\n' with
    | None -> 0
    | Some nl ->
      let line = String.sub lower i (nl - i) in
      let line = String.trim line in
      if
        String.length line > String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        match
          int_of_string_opt
            (String.trim
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix)))
        with
        | Some n when n >= 0 -> n
        | _ -> 0
      else scan (nl + 1)
  in
  scan 0

(* Read the request head (and, when Content-Length announces one, the
   body) and parse the request line.  Returns [None] on a malformed or
   oversized request; the connection is simply dropped. *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec read_head () =
    match find_head_end (Buffer.contents buf) with
    | Some head_end -> Some head_end
    | None ->
      if Buffer.length buf > max_head then None
      else (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read_head ()
        | exception Unix.Unix_error _ -> None)
  in
  match read_head () with
  | None -> None
  | Some head_end -> (
    let raw = Buffer.contents buf in
    let head = String.sub raw 0 head_end in
    let want = content_length head in
    if want > max_body then None
    else
      let rec read_body () =
        if Buffer.length buf >= head_end + want then
          Some (String.sub (Buffer.contents buf) head_end want)
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read_body ()
          | exception Unix.Unix_error _ -> None
      in
      match read_body () with
      | None -> None
      | Some body -> (
        match String.index_opt head '\n' with
        | None -> None
        | Some i ->
          let line = String.trim (String.sub head 0 i) in
          (match String.split_on_char ' ' line with
          | meth :: path :: _ ->
            (* Strip any query string — the endpoints take none. *)
            let path =
              match String.index_opt path '?' with
              | Some q -> String.sub path 0 q
              | None -> path
            in
            Some { meth; path; body }
          | _ -> None)))

let serve_connection handler fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match read_request fd with
      | None -> ()
      | Some req ->
        let resp =
          if req.meth <> "GET" && req.meth <> "HEAD" && req.meth <> "POST"
          then respond ~status:405 "method not allowed\n"
          else
            match handler req with
            | r -> r
            | exception _ -> respond ~status:500 "internal error\n"
        in
        let resp = if req.meth = "HEAD" then { resp with body = "" } else resp in
        (try write_response fd resp with Unix.Unix_error _ -> ()))

let start_routes ?(addr = "127.0.0.1") ~port handler =
  (* A client that disconnects mid-response must surface as an EPIPE
     [Unix_error] (swallowed by the per-connection handlers below), not
     as a SIGPIPE whose default action kills the whole campaign. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     (* Campaign drivers and the serve daemon fork/exec shard workers
        while listening; without close-on-exec a worker inherits the
        socket, and after `kill -9` of the parent the orphan keeps the
        port bound so a restarted daemon cannot bind it. *)
     Unix.set_close_on_exec sock;
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let dom =
    Domain.spawn (fun () ->
        (* The catch-all keeps an asynchronous exception (a raising
           SIGTERM/SIGINT handler delivered to this domain) from
           escaping the loop body: the server exits quietly instead of
           re-raising at [stop]'s Domain.join. *)
        try
          let running = ref true in
          while !running do
            match Unix.select [ sock; stop_r ] [] [] (-1.0) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | readable, _, _ ->
              if List.mem stop_r readable then running := false
              else if List.mem sock readable then begin
                match Unix.accept sock with
                | fd, _ ->
                  (* Connections are served synchronously on this domain:
                     a client that stalls mid-request would otherwise
                     block every other scraper and wedge [stop]'s
                     Domain.join (the self-pipe wakes the select, not an
                     in-flight read).  Bound each read/write instead;
                     timeouts surface as EAGAIN [Unix_error]s, which the
                     handlers treat as a dropped client. *)
                  (try
                     Unix.set_close_on_exec fd;
                     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
                     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
                   with Unix.Unix_error _ -> ());
                  serve_connection handler fd
                | exception Unix.Unix_error _ -> ()
              end
          done
        with _ -> ())
  in
  { sock; port; stop_r; stop_w; dom }

let port t = t.port

let stop t =
  (* One byte on the self-pipe wakes the select; then reap and close. *)
  (try ignore (Unix.write_substring t.stop_w "x" 0 1)
   with Unix.Unix_error _ -> ());
  Domain.join t.dom;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.sock; t.stop_r; t.stop_w ]

(* ------------------------------------------------------------------ *)
(* A matching micro-client, for tests, the bench harness and the
   submit/jobs subcommands.                                            *)

type fetch_error =
  | Refused  (** nothing listening (ECONNREFUSED) *)
  | Timed_out  (** connect or read exceeded the timeout *)
  | Net_error of string  (** any other socket-level failure *)

let fetch_error_message = function
  | Refused -> "connection refused (is the server running?)"
  | Timed_out -> "timed out waiting for the server"
  | Net_error m -> m

let fetch ?(timeout_s = 5.0) ?(meth = "GET") ?body ?(addr = "127.0.0.1")
    ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      match
        (* SO_SNDTIMEO bounds connect as well as writes on Linux, so a
           single pair of socket timeouts covers the whole exchange. *)
        (try
           Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeout_s;
           Unix.setsockopt_float sock Unix.SO_SNDTIMEO timeout_s
         with Unix.Unix_error _ -> ());
        Unix.connect sock
          (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
        let payload = match body with Some b -> b | None -> "" in
        let req =
          Printf.sprintf "%s %s HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
            meth path (String.length payload) payload
        in
        ignore (Unix.write_substring sock req 0 (String.length req));
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read sock chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        in
        drain ();
        Buffer.contents buf
      with
      | raw ->
        let status =
          match String.split_on_char ' ' raw with
          | _ :: code :: _ -> (
            match int_of_string_opt code with Some c -> c | None -> 0)
          | _ -> 0
        in
        let body =
          match find_head_end raw with
          | Some start -> String.sub raw start (String.length raw - start)
          | None -> raw
        in
        Ok (status, body)
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Error Refused
      | exception
          Unix.Unix_error
            ((Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS),
             _, _) ->
        Error Timed_out
      | exception Unix.Unix_error (e, _, _) ->
        Error (Net_error (Unix.error_message e)))
