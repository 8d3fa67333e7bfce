type kind = Raise | Hang | Corrupt | Ledger_fail

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected msg -> Some ("injected fault: " ^ msg)
    | _ -> None)

type plan = {
  seed : int;
  rate : float;
  kinds : kind list;
  faulty_attempts : int;
  soft_error_rate : float;
}

let plan ?(rate = 0.2) ?(kinds = [ Raise ]) ?(faulty_attempts = 1)
    ?(soft_error_rate = 0.0) ~seed () =
  if kinds = [] then invalid_arg "Fault.plan: empty kinds";
  (* Stated positively, so that [nan] is refused too. *)
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Fault.plan: rate not in [0,1]";
  if not (soft_error_rate >= 0.0 && soft_error_rate <= 1.0) then
    invalid_arg "Fault.plan: soft_error_rate not in [0,1]";
  if faulty_attempts < 0 then invalid_arg "Fault.plan: negative faulty_attempts";
  { seed; rate; kinds; faulty_attempts; soft_error_rate }

let at p ~index ~attempt =
  if attempt >= p.faulty_attempts || p.rate <= 0.0 then None
  else begin
    (* One rng per (job, attempt), derived purely from the fault seed:
       the draw is independent of execution order and backend. *)
    let rng =
      Gpusim.Rng.create
        (Gpusim.Rng.subseed (Gpusim.Rng.subseed p.seed index) attempt)
    in
    if Gpusim.Rng.chance rng p.rate then
      Some (List.nth p.kinds (Gpusim.Rng.int rng (List.length p.kinds)))
    else None
  end

type prediction = {
  attempts : int;
  outcome : [ `Clean | `Corrupted | `Quarantined ];
}

let predict p ~retries ~index =
  let rec go attempt =
    if attempt > retries then
      { attempts = retries + 1; outcome = `Quarantined }
    else
      match at p ~index ~attempt with
      | None -> { attempts = attempt + 1; outcome = `Clean }
      | Some Corrupt -> { attempts = attempt + 1; outcome = `Corrupted }
      | Some (Raise | Hang | Ledger_fail) -> go (attempt + 1)
  in
  go 0

let kind_name = function
  | Raise -> "raise"
  | Hang -> "hang"
  | Corrupt -> "corrupt"
  | Ledger_fail -> "ledger"

let kind_of_name = function
  | "raise" -> Some Raise
  | "hang" -> Some Hang
  | "corrupt" -> Some Corrupt
  | "ledger" -> Some Ledger_fail
  | _ -> None

let parse_kinds s =
  let names =
    List.filter
      (fun x -> x <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  if names = [] then Error "no fault kinds given"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match kind_of_name n with
        | Some k -> go (k :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown fault kind %S (expected raise, hang, corrupt or \
                ledger)"
               n))
    in
    go [] names

let pp ppf p =
  Fmt.pf ppf "seed %d, rate %.2f, kinds [%s], faulty attempts %d%s" p.seed
    p.rate
    (String.concat "," (List.map kind_name p.kinds))
    p.faulty_attempts
    (if p.soft_error_rate > 0.0 then
       Fmt.str ", soft errors %.3g" p.soft_error_rate
     else "")
