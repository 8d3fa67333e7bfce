module Q = Core.Queue

type campaign = {
  id : string;
  submitted : float;
  leased : (int * float) list;
  shard_done : (int * float) list;
  finished : (float * string * string option) option;
  requeues : int;
  quarantines : int;
}

let campaigns events =
  let tbl = Hashtbl.create 16 and order = ref [] in
  let update id f =
    match Hashtbl.find_opt tbl id with
    | Some c -> Hashtbl.replace tbl id (f c)
    | None -> ()
  in
  (* First occurrence per shard wins: a requeued shard's later lease is
     a retry, and the campaign already counts as failed. *)
  let first k t l = if List.mem_assoc k l then l else l @ [ (k, t) ] in
  List.iter
    (function
      | Q.Submitted { t; spec } ->
        if not (Hashtbl.mem tbl spec.Q.id) then begin
          order := spec.Q.id :: !order;
          Hashtbl.replace tbl spec.Q.id
            { id = spec.Q.id; submitted = t; leased = []; shard_done = [];
              finished = None; requeues = 0; quarantines = 0 }
        end
      | Q.Leased { t; id; shard; _ } ->
        update id (fun c -> { c with leased = first shard t c.leased })
      | Q.Shard_done { t; id; shard; _ } ->
        update id (fun c -> { c with shard_done = first shard t c.shard_done })
      | Q.Requeued { id; _ } ->
        update id (fun c -> { c with requeues = c.requeues + 1 })
      | Q.Quarantined { id; _ } ->
        update id (fun c -> { c with quarantines = c.quarantines + 1 })
      | Q.Finished { t; id; status; ledger } ->
        update id (fun c ->
            if c.finished = None then { c with finished = Some (t, status, ledger) }
            else c))
    events;
  List.rev_map (Hashtbl.find tbl) !order

let latency c =
  match c.finished with
  | Some (t, _, _) -> Some (t -. c.submitted)
  | None -> None

let clean c =
  match c.finished with
  | Some (_, "done", Some _) -> c.requeues = 0 && c.quarantines = 0
  | _ -> false

let queue_wait c =
  match c.leased with
  | [] -> None
  | l -> Some (List.fold_left (fun m (_, t) -> Float.min m t) infinity l -. c.submitted)
