(** A minimal HTTP/1.0 server (Unix sockets only) for campaign
    observability endpoints and the [gpuwmm serve] submission API.

    One background domain accepts loopback connections and serves each
    with a single handler call; connections are closed after every
    response ([Connection: close]).  Failures inside a connection are
    swallowed — the server exists to observe a campaign, never to
    interrupt one: {!start_routes} ignores [SIGPIPE] process-wide so a client
    disconnecting mid-response surfaces as a swallowed [EPIPE] rather
    than killing the campaign, and every accepted socket carries short
    receive/send timeouts so a stalled client cannot starve other
    scrapers.  [stop] wakes the accept loop through a self-pipe, so
    shutdown is prompt even when no request ever arrives. *)

type response = {
  status : int;
  content_type : string;
  body : string;
}

val respond : ?status:int -> ?content_type:string -> string -> response
(** [respond body] is a [200] [text/plain] response by default. *)

type request = {
  meth : string;  (** ["GET"], ["HEAD"] or ["POST"] *)
  path : string;  (** query string stripped *)
  body : string;  (** [""] unless the client sent a [Content-Length] body *)
}

type t

val start_routes : ?addr:string -> port:int -> (request -> response) -> t
(** [start_routes ~port handler] binds [addr] (default loopback) on
    [port] — [0] picks a free port, see {!port} — and serves each
    request by calling [handler] with the whole {!request}: method,
    path (query string stripped) and any [POST] body (capped at
    1 MiB).  [GET], [HEAD] and [POST] are dispatched; other methods get
    a [405] before the handler runs.  A handler exception becomes a
    [500].  Raises [Unix.Unix_error] if the bind fails. *)

val port : t -> int
(** The actually bound port (useful with [~port:0]). *)

val stop : t -> unit
(** Stop accepting, join the server domain and close the socket. *)

(** {1 Micro-client} *)

type fetch_error =
  | Refused  (** nothing listening on the port ([ECONNREFUSED]) *)
  | Timed_out  (** connect or read exceeded the timeout *)
  | Net_error of string  (** any other socket-level failure *)

val fetch_error_message : fetch_error -> string
(** Actionable one-line rendering of a {!fetch_error}. *)

val fetch :
  ?timeout_s:float ->
  ?meth:string ->
  ?body:string ->
  ?addr:string ->
  port:int ->
  string ->
  (int * string, fetch_error) result
(** Blocking micro-client for the client subcommands, tests and
    benches: [fetch ~port path] performs one request (default [GET];
    pass [~meth:"POST" ~body:...] to submit) and returns
    [Ok (status, body)].  Connect and receive are bounded by
    [timeout_s] (default 5 s); a refused connection or an expired
    timeout comes back as a typed [Error], never a raw
    [Unix.Unix_error]. *)
