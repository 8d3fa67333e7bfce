(** How a state record reaches and leaves disk.

    Run ledgers ({!Runlog}), the [serve] queue journal ({!Queue}) and
    heartbeat streams ({!Heartbeat}) are JSONL files, one JSON record
    per line.  Only this module writes, heals or reads them, so they
    share one crash contract: a crash cuts at most the final line
    short; readers drop that torn tail, and {!append} heals it before
    writing. *)

(** {1 Ledger writer} *)

type writer
(** A buffered channel on a freshly truncated file. *)

val create : string -> writer
(** Create or truncate the file. *)

val output : writer -> Json.t -> unit
(** Buffer one record as one line; {!flush} writes the buffer out (a
    full buffer also spills, possibly mid-line). *)

val flush : writer -> unit
val close : writer -> unit
(** Flush and close. *)

(** {1 Append} *)

val append : string -> Json.t -> unit
(** Append one record as one line in one write, creating the file if
    needed.  If the file does not end in ['\n'], its final line is
    first completed when it parses as JSON and cut off when it does
    not, so the record never glues onto a torn fragment.  Raises
    [Unix.Unix_error] when the file cannot be opened or written. *)

(** {1 Strict reader} *)

val read : string -> (string, string) result
(** The whole file, or the [Sys_error] message. *)

val parse :
  (Json.t -> ('a, string) result) -> string -> ('a list * bool, string) result
(** Decode every non-blank line, oldest first.  A last line that does
    not decode is dropped and flagged [true] (torn by a crash); a line
    anywhere else that does not decode is an error ["line N: ..."],
    counting non-blank lines from 1. *)

(** {1 Observer readers} *)

val lenient : (Json.t -> ('a, string) result) -> string -> 'a list
(** Every line of the file that decodes, oldest first; other lines are
    skipped and a missing file has none. *)

val last : (Json.t -> ('a, string) result) -> string -> 'a option
(** The last line that decodes (the last of {!lenient}), read backwards
    from the end of the file. *)
