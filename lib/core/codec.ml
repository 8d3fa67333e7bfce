(* Decoders raise [Fail] internally, so a record decodes without a
   result per field; [decode] and [get] turn it back into [Error]. *)
exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a }

let encode c v = c.enc v
let decode c j = match c.dec j with v -> Ok v | exception Fail e -> Error e

let prim what of_json enc =
  { enc;
    dec =
      (fun j -> match of_json j with Some v -> v | None -> fail "expected %s" what)
  }

let int = prim "an int" Json.to_int (fun n -> Json.Int n)
let float = prim "a number" Json.to_float (fun f -> Json.Float f)
let bool = prim "a bool" Json.to_bool (fun b -> Json.Bool b)
let string = prim "a string" Json.to_str (fun s -> Json.String s)
let json = { enc = Fun.id; dec = Fun.id }

let list c =
  { enc = (fun xs -> Json.List (List.map c.enc xs));
    dec = (function Json.List xs -> List.map c.dec xs | _ -> fail "expected a list")
  }

let nullable c =
  { enc = (function None -> Json.Null | Some v -> c.enc v);
    dec = (function Json.Null -> None | j -> Some (c.dec j)) }

let assoc c =
  { enc = (fun kvs -> Json.Assoc (List.map (fun (k, v) -> (k, c.enc v)) kvs));
    dec =
      (function
      | Json.Assoc kvs -> List.map (fun (k, v) -> (k, c.dec v)) kvs
      | _ -> fail "expected an object") }

let conv f g c =
  { enc = (fun v -> c.enc (f v));
    dec = (fun j -> match g (c.dec j) with Ok v -> v | Error e -> raise (Fail e))
  }

(* ------------------------------------------------------------------ *)
(* Objects                                                              *)

(* [enc o tail] conses the fields declared so far onto [tail], so each
   field lands in wire order straight on the output list; [dec] applies
   the constructor to them in the same order. *)
type ('o, 'k) obj = {
  tag : (string * string) option;
  enc_fields : 'o -> (string * Json.t) list -> (string * Json.t) list;
  dec_fields : Json.t -> 'k;
}

let field_opt name c j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    try Some (c.dec v) with Fail e -> fail "field %S: %s" name e)

let field name c j =
  match Json.member name j with
  | None -> fail "missing field %S" name
  | Some v -> ( try c.dec v with Fail e -> fail "field %S: %s" name e)

let obj k = { tag = None; enc_fields = (fun _ tail -> tail); dec_fields = (fun _ -> k) }

let mem name c get o =
  { o with
    enc_fields = (fun v tail -> o.enc_fields v ((name, c.enc (get v)) :: tail));
    dec_fields = (fun j -> let k = o.dec_fields j in k (field name c j)) }

let opt name c get o =
  { o with
    enc_fields =
      (fun v tail ->
        o.enc_fields v
          (match get v with None -> tail | Some x -> (name, c.enc x) :: tail));
    dec_fields = (fun j -> let k = o.dec_fields j in k (field_opt name c j)) }

let dflt name c ~default get o =
  { o with
    enc_fields =
      (fun v tail ->
        let x = get v in
        o.enc_fields v (if x = default then tail else (name, c.enc x) :: tail));
    dec_fields =
      (fun j ->
        let k = o.dec_fields j in
        k (match field_opt name c j with Some x -> x | None -> default)) }

let tag k v o = { o with tag = Some (k, v) }

let seal o =
  let dec j =
    match j with
    | Json.Assoc _ -> o.dec_fields j
    | _ -> fail "expected an object"
  in
  match o.tag with
  | None -> { enc = (fun v -> Json.Assoc (o.enc_fields v [])); dec }
  | Some (k, t) ->
    let kv = (k, Json.String t) in
    { enc = (fun v -> Json.Assoc (kv :: o.enc_fields v []));
      dec =
        (fun j ->
          match Json.member k j with
          | Some (Json.String t') when t' = t -> dec j
          | _ -> fail "not a %S record" t) }

let fields c v =
  match c.enc v with
  | Json.Assoc kvs -> kvs
  | _ -> invalid_arg "Codec.fields: not an object codec"

let get c name j = match field name c j with v -> Ok v | exception Fail e -> Error e

let get_opt c name j =
  match field_opt name c j with v -> Ok v | exception Fail e -> Error e
