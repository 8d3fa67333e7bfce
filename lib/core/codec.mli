(** Bidirectional JSON codecs: each record format is declared once.

    A ['a t] both encodes an ['a] to {!Json} and decodes it back, so a
    record's writer and reader cannot drift apart.  Objects are built
    field by field in wire order:

    {[
      let job =
        Codec.(
          obj (fun phase index -> { phase; index })
          |> mem "phase" string (fun j -> j.phase)
          |> mem "i" int (fun j -> j.index)
          |> tag "rec" "job"
          |> seal)
    ]}

    The constructor takes the fields in the order they are declared,
    which is also the order the encoder writes them.  Two omission
    rules keep on-disk bytes stable as formats grow: {!opt} leaves a
    [None] field out, and {!dflt} leaves out a field equal to its
    default.  Decoders ignore fields they do not declare. *)

type 'a t

val encode : 'a t -> 'a -> Json.t

val decode : 'a t -> Json.t -> ('a, string) result
(** The first field that is missing or mistyped is the error. *)

(** {1 Primitives} *)

val int : int t

val float : float t
(** Also decodes an [Int]. *)

val bool : bool t
val string : string t

val json : Json.t t
(** Any value, unchanged. *)

(** {1 Combinators} *)

val list : 'a t -> 'a list t

val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val assoc : 'a t -> (string * 'a) list t
(** An object read as a key/value list, in wire order. *)

val conv : ('a -> 'b) -> ('b -> ('a, string) result) -> 'b t -> 'a t
(** [conv f g c] encodes through [f] then [c], and decodes through [c]
    then [g]; [g]'s [Error] is the decode error. *)

(** {1 Objects} *)

type ('o, 'k) obj
(** An object codec for ['o] under construction; ['k] is the part of
    the constructor still waiting for fields. *)

val obj : 'k -> ('o, 'k) obj
(** Start an object whose constructor is ['k]. *)

val mem : string -> 'a t -> ('o -> 'a) -> ('o, 'a -> 'k) obj -> ('o, 'k) obj
(** A required field. *)

val opt :
  string -> 'a t -> ('o -> 'a option) -> ('o, 'a option -> 'k) obj ->
  ('o, 'k) obj
(** An optional field: [None] is not written, and an absent or [null]
    field decodes to [None]. *)

val dflt :
  string -> 'a t -> default:'a -> ('o -> 'a) -> ('o, 'a -> 'k) obj ->
  ('o, 'k) obj
(** A field with a default: a value equal to [default] is not written,
    and an absent or [null] field decodes to [default]. *)

val tag : string -> string -> ('o, 'k) obj -> ('o, 'k) obj
(** [tag k v] writes [k: v] as the object's first field, and refuses to
    decode an object whose [k] is not [v]. *)

val seal : ('o, 'o) obj -> 'o t

val fields : 'o t -> 'o -> (string * Json.t) list
(** The fields an object codec writes, for a caller that adds its own. *)

(** {1 Reading one field} *)

val get : 'a t -> string -> Json.t -> ('a, string) result
(** One required field of an object, for hand-written decoders of
    tagged unions. *)

val get_opt : 'a t -> string -> Json.t -> ('a option, string) result
(** One optional field: absent or [null] is [None]. *)
