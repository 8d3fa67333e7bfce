type result = {
  chip : string;
  patch : Patch_finder.result;
  sequences : Seq_finder.result;
  spreads : Spread_finder.result;
  tuned : Stress.tuned;
  elapsed_s : float;
}

let run ?backend ?journal ~chip ~seed ~budget () =
  let t0 = Unix.gettimeofday () in
  (* The three stages are data-dependent and run in sequence; each stage
     parallelises its own grid through Exec.  Stage seeds are split from
     the master seed up front. *)
  let patch =
    Patch_finder.run ?backend ?journal ~chip ~seed:(Gpusim.Rng.subseed seed 0)
      ~budget ()
  in
  let sequences =
    Seq_finder.run ?backend ?journal ~chip ~seed:(Gpusim.Rng.subseed seed 1)
      ~budget ~patch:patch.Patch_finder.chosen ()
  in
  let spreads =
    Spread_finder.run ?backend ?journal ~chip
      ~seed:(Gpusim.Rng.subseed seed 2) ~budget
      ~patch:patch.Patch_finder.chosen
      ~sequence:sequences.Seq_finder.winner ()
  in
  let tuned =
    { Stress.sequence = sequences.Seq_finder.winner;
      spread = spreads.Spread_finder.winner;
      regions = budget.Budget.max_spread }
  in
  (* In deterministic-ledger mode the elapsed time would be the only
     nondeterministic field of the tuning result record; zero it so
     fresh and resumed ledgers stay byte-identical. *)
  let elapsed_s =
    if Runlog.deterministic_mode () then 0.0
    else Unix.gettimeofday () -. t0
  in
  { chip = chip.Gpusim.Chip.name; patch; sequences; spreads; tuned;
    elapsed_s }

let parse s =
  match Access_seq.of_string s with
  | Some seq -> seq
  | None -> invalid_arg ("Tuning.shipped: bad sequence " ^ s)

(* Table 2 of the paper. *)
let table2 =
  [ ("980", "ld4 st");
    ("K5200", "ld3 st ld");
    ("Titan", "ld st2 ld");
    ("K20", "ld st2 ld");
    ("770", "st2 ld2");
    ("C2075", "ld st");
    ("C2050", "ld st") ]

let shipped ~chip =
  let name = chip.Gpusim.Chip.name in
  let sequence =
    match List.assoc_opt name table2 with
    | Some s -> parse s
    | None ->
      (* A typo'd chip must not silently masquerade as a tuned one. *)
      Logs.warn (fun m ->
          m
            "Tuning.shipped: chip %S has no Table 2 parameters; falling back \
             to the untuned sequence \"ld st\""
            name);
      parse "ld st"
  in
  { Stress.sequence; spread = 2; regions = Budget.default.Budget.max_spread }

(* ------------------------------------------------------------------ *)
(* Ledger codecs                                                        *)

let tuned =
  Codec.(
    obj (fun sequence spread regions -> { Stress.sequence; spread; regions })
    |> mem "sequence" Seq_finder.sequence (fun t -> t.Stress.sequence)
    |> mem "spread" int (fun t -> t.Stress.spread)
    |> mem "regions" int (fun t -> t.Stress.regions)
    |> seal)

let result =
  Codec.(
    obj (fun chip elapsed_s patch sequences spreads tuned ->
        { chip; patch; sequences; spreads; tuned; elapsed_s })
    |> mem "chip" string (fun r -> r.chip)
    |> mem "elapsed_s" float (fun r -> r.elapsed_s)
    |> mem "patch" Patch_finder.result (fun r -> r.patch)
    |> mem "sequences" Seq_finder.result (fun r -> r.sequences)
    |> mem "spreads" Spread_finder.result (fun r -> r.spreads)
    |> mem "tuned" tuned (fun r -> r.tuned)
    |> seal)

let result_to_json = Codec.encode result
let result_of_json = Codec.decode result
