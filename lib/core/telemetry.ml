(* ------------------------------------------------------------------ *)
(* Striping                                                             *)

(* Counters and histogram cells are striped: each domain writes its own
   stripe (assigned round-robin on first use) and readers merge on
   demand.  Worker domains therefore never contend on a shared cache
   line while bumping metrics — with a single shared cell, the
   per-completed-job counter updates serialise the whole pool.  Reads
   ({!counter_value}, {!snapshot}) sum the stripes; they are exact
   whenever no writer is concurrently mid-update, which is the same
   consistency the single-cell representation offered. *)
let n_stripes = 8 (* power of two *)

let next_stripe = Atomic.make 0

let stripe_key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Atomic.fetch_and_add next_stripe 1 land (n_stripes - 1))

let stripe () = Domain.DLS.get stripe_key

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

type counter = int Atomic.t array (* one cell per stripe *)

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let registry_mu = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let counter name =
  with_registry (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = Array.init n_stripes (fun _ -> Atomic.make 0) in
        Hashtbl.add counters name c;
        c)

let incr c = Atomic.incr c.(stripe ())
let add c n = ignore (Atomic.fetch_and_add c.(stripe ()) n)

let counter_value c =
  let total = ref 0 in
  Array.iter (fun cell -> total := !total + Atomic.get cell) c;
  !total

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)

(* Log-scale duration bounds, seconds.  The last bucket is the overflow
   catch-all. *)
let bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0; infinity |]

type histogram = {
  cells : int Atomic.t array array;  (* stripe -> per-bound cells *)
  sum : float Atomic.t array;  (* stripe -> partial sum *)
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  with_registry (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          { cells =
              Array.init n_stripes (fun _ ->
                  Array.init (Array.length bounds) (fun _ -> Atomic.make 0));
            sum = Array.init n_stripes (fun _ -> Atomic.make 0.0) }
        in
        Hashtbl.add histograms name h;
        h)

(* [compare_and_set] on a boxed float compares the box physically, so
   the retry loop is sound: we only install a new box against the exact
   box we read.  More domains than stripes can share a cell, so the CAS
   loop stays necessary even striped. *)
let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let observe h v =
  let v = Float.max 0.0 v in
  let rec slot i = if v <= bounds.(i) then i else slot (i + 1) in
  let s = stripe () in
  Atomic.incr h.cells.(s).(slot 0);
  atomic_add_float h.sum.(s) v

type histogram_snapshot = {
  count : int;
  sum : float;
  buckets : (float * int) list;
}

let snapshot_histogram h =
  let counts =
    Array.init (Array.length bounds) (fun i ->
        let n = ref 0 in
        Array.iter (fun stripe -> n := !n + Atomic.get stripe.(i)) h.cells;
        !n)
  in
  let total = Array.fold_left ( + ) 0 counts in
  let sum = ref 0.0 in
  Array.iter (fun cell -> sum := !sum +. Atomic.get cell) h.sum;
  (* Cumulative "le" semantics, Prometheus-style. *)
  let acc = ref 0 in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i n ->
           acc := !acc + n;
           (bounds.(i), !acc))
         counts)
  in
  { count = total; sum = !sum; buckets }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  with_registry (fun () ->
      { counters =
          Hashtbl.fold (fun k c acc -> (k, counter_value c) :: acc) counters []
          |> List.sort by_name;
        histograms =
          Hashtbl.fold
            (fun k h acc -> (k, snapshot_histogram h) :: acc)
            histograms []
          |> List.sort by_name })

let reset () =
  with_registry (fun () ->
      Hashtbl.iter (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c)
        counters;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (Array.iter (fun c -> Atomic.set c 0)) h.cells;
          Array.iter (fun cell -> Atomic.set cell 0.0) h.sum)
        histograms)

let bound_json b =
  if Float.is_finite b then Json.Float b else Json.String "inf"

let snapshot_to_json s =
  let hist_json (hs : histogram_snapshot) =
    (* Only buckets that gained samples over their predecessor. *)
    let _, nonempty =
      List.fold_left
        (fun (prev, acc) (b, cum) ->
          ( cum,
            if cum > prev then
              Json.Assoc [ ("le", bound_json b); ("n", Json.Int cum) ] :: acc
            else acc ))
        (0, []) hs.buckets
    in
    Json.Assoc
      [ ("count", Json.Int hs.count);
        ("sum", Json.Float hs.sum);
        ("buckets", Json.List (List.rev nonempty)) ]
  in
  Json.Assoc
    [ ( "counters",
        Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
      ( "histograms",
        Json.Assoc (List.map (fun (k, h) -> (k, hist_json h)) s.histograms) )
    ]

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  label : string;
  index : int;
  worker : int;
  queued_at : float;
  started_at : float;
  ended_at : float;
}

let spans_on = Atomic.make false
let span_log : span list ref = ref []
let span_mu = Mutex.create ()

let clear_spans () =
  Mutex.lock span_mu;
  span_log := [];
  Mutex.unlock span_mu

let set_spans on =
  Atomic.set spans_on on;
  if on then clear_spans ()

let spans_enabled () = Atomic.get spans_on

let record_span s =
  if Atomic.get spans_on then begin
    Mutex.lock span_mu;
    span_log := s :: !span_log;
    Mutex.unlock span_mu
  end

let spans () =
  Mutex.lock span_mu;
  let l = List.rev !span_log in
  Mutex.unlock span_mu;
  l

(* ------------------------------------------------------------------ *)
(* JSONL: every field of every record, written for other tools          *)

let record_to_json { Gpusim.Trace.tick; event } =
  let open Json in
  let fields =
    match event with
    | Gpusim.Trace.Launch_begin
        { kernel; grid; block; stress_blocks; stress_threads } ->
      [ ("kernel", String kernel); ("grid", Int grid); ("block", Int block);
        ("stress_blocks", Int stress_blocks);
        ("stress_threads", Int stress_threads) ]
    | Launch_end { outcome; divergence; metrics } ->
      [ ("outcome", String outcome); ("divergence", Bool divergence);
        ("metrics", Assoc (List.map (fun (k, v) -> (k, Int v)) metrics)) ]
    | Access { tid; addr; write; atomic } ->
      [ ("tid", Int tid); ("addr", Int addr); ("write", Bool write);
        ("atomic", Bool atomic) ]
    | Issue { tid; addr; part; is_store } ->
      [ ("tid", Int tid); ("addr", Int addr); ("part", Int part);
        ("is_store", Bool is_store) ]
    | Commit { tid; addr; is_store; value; reordered } ->
      [ ("tid", Int tid); ("addr", Int addr); ("is_store", Bool is_store);
        ("value", Int value); ("reordered", Bool reordered) ]
    | Reorder { tid; overtaken; committed } ->
      [ ("tid", Int tid); ("overtaken", Int overtaken);
        ("committed", Int committed) ]
    | Atomic_rmw { tid; addr; before; after } ->
      [ ("tid", Int tid); ("addr", Int addr); ("before", Int before);
        ("after", Int after) ]
    | Fence { tid; pending; device_scope } ->
      [ ("tid", Int tid); ("pending", Int pending);
        ("device_scope", Bool device_scope) ]
    | Barrier_wait { tid; block } -> [ ("tid", Int tid); ("block", Int block) ]
    | Barrier_release { block; by_exit } ->
      [ ("block", Int block); ("by_exit", Bool by_exit) ]
    | Thread_done { tid; daemon } ->
      [ ("tid", Int tid); ("daemon", Bool daemon) ]
    | Contention { part; read; write } ->
      [ ("part", Int part); ("read", Float read); ("write", Float write) ]
    | Bitflip { tid; addr; bit; before; after } ->
      [ ("tid", Int tid); ("addr", Int addr); ("bit", Int bit);
        ("before", Int before); ("after", Int after) ]
  in
  Assoc
    (("tick", Int tick)
    :: ("ev", String (Gpusim.Trace.event_name event))
    :: fields)

(* Provenance stamp for multi-process exports: prepended fields, so a
   merged stream still says which worker each line came from. *)
let stamp ?pid ?shard = function
  | Json.Assoc kvs ->
    Json.Assoc
      ((match pid with Some p -> [ ("pid", Json.Int p) ] | None -> [])
      @ (match shard with Some s -> [ ("shard", Json.String s) ] | None -> [])
      @ kvs)
  | j -> j

let jsonl ?pid ?shard records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Json.to_string (stamp ?pid ?shard (record_to_json r)));
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)

let chrome_of_record ~rec_pid r =
  let { Gpusim.Trace.tick; event } = r in
  let open Json in
  match event with
  | Gpusim.Trace.Contention { part; read; write } ->
    (* Counter tracks: one per partition, plotted by the trace viewer. *)
    Assoc
      [ ("name", String (Printf.sprintf "contention.p%d" part));
        ("ph", String "C"); ("ts", Int tick); ("pid", Int rec_pid);
        ("tid", Int 0);
        ("args", Assoc [ ("read", Float read); ("write", Float write) ]) ]
  | event ->
    let tid =
      match Gpusim.Trace.tid_of_event event with Some t -> t | None -> 0
    in
    let args =
      match record_to_json r with
      | Assoc (("tick", _) :: ("ev", _) :: fields) -> fields
      | _ -> []
    in
    Assoc
      [ ("name", String (Gpusim.Trace.event_name event));
        ("ph", String "i"); ("s", String "t"); ("ts", Int tick);
        ("pid", Int rec_pid); ("tid", Int tid); ("args", Assoc args) ]

let chrome_of_span ~span_pid base s =
  let us t = int_of_float ((t -. base) *. 1e6) in
  Json.Assoc
    [ ("name", Json.String s.label); ("ph", Json.String "X");
      ("ts", Json.Int (us s.started_at));
      ("dur", Json.Int (Int.max 0 (us s.ended_at - us s.started_at)));
      ("pid", Json.Int span_pid); ("tid", Json.Int s.worker);
      ( "args",
        Json.Assoc
          [ ("index", Json.Int s.index);
            ( "queue_wait_us",
              Json.Int (Int.max 0 (us s.started_at - us s.queued_at)) ) ] ) ]

(* ts is microseconds: our files write ints, but foreign tools legally
   emit floats, so the one reader takes both. *)
let ts_of = function
  | Json.Assoc kvs -> (
    match List.assoc_opt "ts" kvs with
    | Some (Json.Int t) -> Some (float_of_int t)
    | Some (Json.Float t) -> Some t
    | _ -> None)
  | _ -> None

let by_ts events =
  List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) events

let chrome_trace ?pid ?shard ?span_base ?(spans = []) records =
  (* Without an explicit pid, simulator records and wall-clock spans
     live on the traditional synthetic tracks 0 and 1.  With ?pid (a
     worker writing its own span file) both carry the real pid, and a
     process_name metadata event labels the track — that is what makes
     `gpuwmm trace --merge` able to union worker files into one
     timeline without colliding tracks. *)
  let rec_pid = match pid with Some p -> p | None -> 0 in
  let span_pid = match pid with Some p -> p | None -> 1 in
  let base =
    match span_base with
    | Some b -> b
    | None ->
      List.fold_left (fun acc s -> Float.min acc s.queued_at) infinity spans
  in
  let meta =
    match pid with
    | None -> []
    | Some p ->
      let name =
        Printf.sprintf "gpuwmm pid %d%s" p
          (match shard with Some s -> " shard " ^ s | None -> "")
      in
      [ Json.Assoc
          [ ("name", Json.String "process_name"); ("ph", Json.String "M");
            ("pid", Json.Int p); ("tid", Json.Int 0);
            ("args", Json.Assoc [ ("name", Json.String name) ]) ] ]
  in
  let events =
    List.map (chrome_of_record ~rec_pid) records
    @ List.map (chrome_of_span ~span_pid base) spans
  in
  Json.Assoc [ ("traceEvents", Json.List (meta @ by_ts events)) ]

let chrome_events doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) -> Ok evs
  | _ -> Error "not a Chrome trace-event file (no traceEvents array)"

(* Metadata events (ph "M", track labels) float to the front untouched;
   the others are rebased so the earliest is at 0, and re-sorted.
   Integer ts keep their kind when the base is integral, so merges of
   gpuwmm files alone stay byte-stable. *)
let merge_chrome events =
  let is_meta = function
    | Json.Assoc kvs -> List.assoc_opt "ph" kvs = Some (Json.String "M")
    | _ -> false
  in
  let metas, timed = List.partition is_meta events in
  let base =
    List.fold_left
      (fun acc ev ->
        match ts_of ev with Some t -> Float.min acc t | None -> acc)
      infinity timed
  in
  let base = if base = infinity then 0.0 else base in
  let int_base = Float.is_integer base in
  let rebase = function
    | Json.Assoc kvs ->
      Json.Assoc
        (List.map
           (function
             | "ts", Json.Int t when int_base ->
               ("ts", Json.Int (t - int_of_float base))
             | "ts", Json.Int t -> ("ts", Json.Float (float_of_int t -. base))
             | "ts", Json.Float t -> ("ts", Json.Float (t -. base))
             | kv -> kv)
           kvs)
    | ev -> ev
  in
  Json.Assoc
    [ ("traceEvents", Json.List (metas @ by_ts (List.map rebase timed))) ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                           *)

(* Metric names: registry names are dotted ("exec.jobs"); Prometheus
   wants [a-zA-Z0-9_:] with a namespace prefix. *)
let prom_name n =
  "gpuwmm_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      n

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

type family = { name : string; kind : string; samples : (string * string) list }

let sample ~kind name v = { name; kind; samples = [ ("", v) ] }

(* The one writer of the exposition syntax: a family declares its type
   even when it has no sample. *)
let exposition families =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Printf.bprintf b "# TYPE %s %s\n" f.name f.kind;
      List.iter
        (fun (suffix, v) -> Printf.bprintf b "%s%s %s\n" f.name suffix v)
        f.samples)
    families;
  Buffer.contents b

let prometheus (s : snapshot) =
  exposition
    (List.map
       (fun (name, v) ->
         sample ~kind:"counter" (prom_name name) (string_of_int v))
       s.counters
    @ List.map
        (fun (name, (h : histogram_snapshot)) ->
          let le bound =
            if Float.is_finite bound then prom_float bound else "+Inf"
          in
          { name = prom_name name ^ "_seconds";
            kind = "histogram";
            samples =
              List.map
                (fun (bound, cum) ->
                  ( Printf.sprintf "_bucket{le=%S}" (le bound),
                    string_of_int cum ))
                h.buckets
              @ [ ("_sum", prom_float h.sum);
                  ("_count", string_of_int h.count) ]
          })
        s.histograms)
