let hr ppf width = Fmt.pf ppf "%s@." (String.make width '-')

let table1 ppf =
  Fmt.pf ppf "Table 1: the seven Nvidia GPUs that we study (simulated)@.";
  hr ppf 56;
  Fmt.pf ppf "%-14s %-12s %-10s %s@." "chip" "architecture" "short name"
    "released";
  hr ppf 56;
  List.iter
    (fun c ->
      Fmt.pf ppf "%-14s %-12s %-10s %d@." c.Gpusim.Chip.full_name
        (Gpusim.Chip.architecture_name c.Gpusim.Chip.architecture)
        c.Gpusim.Chip.name c.Gpusim.Chip.released)
    Gpusim.Chip.all

let table2 ppf results =
  Fmt.pf ppf
    "Table 2: stressing parameters and time spent tuning (simulated)@.";
  hr ppf 64;
  Fmt.pf ppf "%-8s %-14s %-14s %-7s %s@." "chip" "c. patch size" "sequence"
    "spread" "time (mins)";
  hr ppf 64;
  List.iter
    (fun ((r : Tuning.result), mins) ->
      Fmt.pf ppf "%-8s %-14d %-14s %-7d %.1f@." r.Tuning.chip
        r.patch.Patch_finder.chosen
        (Access_seq.to_string r.sequences.Seq_finder.winner)
        r.spreads.Spread_finder.winner mins)
    results

let table3 ppf (r : Seq_finder.result) =
  Fmt.pf ppf "Table 3: top and bottom access sequences per litmus test@.";
  hr ppf 66;
  List.iter
    (fun idiom ->
      let rows = Seq_finder.rank_for r idiom in
      let n = List.length rows in
      Fmt.pf ppf "%s:@." (Litmus.Test.idiom_name idiom);
      List.iter
        (fun (rank, seq, score) ->
          if rank <= 3 || rank > n - 3 then
            Fmt.pf ppf "  %3d  %-14s %d@." rank (Access_seq.to_string seq)
              score;
          if rank = 4 && n > 6 then Fmt.pf ppf "  ...@.")
        rows)
    Litmus.Test.idioms;
  Fmt.pf ppf "winner (Pareto + tie-break): %s@."
    (Access_seq.to_string r.winner)

let table4 ppf =
  Fmt.pf ppf "Table 4: the ten case studies we consider@.";
  hr ppf 78;
  List.iter
    (fun app ->
      Fmt.pf ppf "%-12s %s@." app.Apps.App.name app.Apps.App.source;
      Fmt.pf ppf "%-12s   communication:  %s@." "" app.Apps.App.communication;
      Fmt.pf ppf "%-12s   post-condition: %s@." "" app.Apps.App.post_condition;
      if app.Apps.App.has_fences then
        Fmt.pf ppf "%-12s   (contains fence instructions)@." "")
    Apps.Registry.all

(* Shared Table 5 layout: paper column order for environments, Table 1
   order for chips — used identically by the ASCII, markdown and CSV
   renderers so the ledger path cannot drift from the live one. *)
let table5_layout rows =
  let envs =
    List.sort_uniq compare (List.map (fun r -> r.Campaign.environment) rows)
  in
  (* Preserve the paper's column order. *)
  let order =
    [ "no-str-"; "no-str+"; "sys-str-"; "sys-str+"; "rand-str-"; "rand-str+";
      "cache-str-"; "cache-str+" ]
  in
  let envs =
    List.filter (fun e -> List.mem e envs) order
    @ List.filter (fun e -> not (List.mem e order)) envs
  in
  let chips =
    List.sort_uniq compare (List.map (fun r -> r.Campaign.chip) rows)
  in
  let chips =
    (* Table 1 order. *)
    List.filter
      (fun c -> List.mem c chips)
      (List.map (fun c -> c.Gpusim.Chip.name) Gpusim.Chip.all)
    @ List.filter
        (fun c ->
          not
            (List.mem c (List.map (fun c -> c.Gpusim.Chip.name) Gpusim.Chip.all)))
        chips
  in
  (chips, envs)

let table5_find rows chip env =
  List.find_opt
    (fun r -> r.Campaign.chip = chip && r.Campaign.environment = env)
    rows

(* Degraded campaigns: cells whose job was quarantined under
   [--keep-going] carry no measurements.  Shared by the ASCII, markdown
   and CSV renderers: the a/b entry gains a [!n] marker (n quarantined
   cells) and the listing below names each cell and its failure. *)
let quarantined_in (r : Campaign.row) =
  List.filter (fun c -> c.Campaign.quarantined <> None) r.Campaign.cells

let table5_entry (r : Campaign.row) =
  let base =
    Printf.sprintf "%d / %d" r.Campaign.effective r.Campaign.capable
  in
  match List.length (quarantined_in r) with
  | 0 -> base
  | n -> Printf.sprintf "%s !%d" base n

let quarantined_cells rows =
  List.concat_map
    (fun (r : Campaign.row) ->
      List.filter_map
        (fun (c : Campaign.cell) ->
          Option.map
            (fun reason ->
              ( Printf.sprintf "%s/%s/%s" r.Campaign.chip
                  r.Campaign.environment c.Campaign.app,
                reason ))
            c.Campaign.quarantined)
        r.Campaign.cells)
    rows

let table5 ppf rows =
  Fmt.pf ppf
    "Table 5: effectiveness of the testing environments (a / b, where b = \
     apps with errors,@.         a = apps with error rate over 5%%)@.";
  let chips, envs = table5_layout rows in
  hr ppf (8 + (11 * List.length envs));
  Fmt.pf ppf "%-8s" "chip";
  List.iter (fun e -> Fmt.pf ppf "%-11s" e) envs;
  Fmt.pf ppf "@.";
  hr ppf (8 + (11 * List.length envs));
  List.iter
    (fun chip ->
      Fmt.pf ppf "%-8s" chip;
      List.iter
        (fun env ->
          match table5_find rows chip env with
          | Some r -> Fmt.pf ppf "%-11s" (table5_entry r)
          | None -> Fmt.pf ppf "%-11s" "-")
        envs;
      Fmt.pf ppf "@.")
    chips;
  (* Dominant failure modes, aggregated over every cell of a chip's rows:
     the per-cell error histograms make the "what actually broke" question
     answerable from the same campaign data. *)
  let dominant_for chip =
    List.filter (fun r -> r.Campaign.chip = chip) rows
    |> List.concat_map (fun r ->
           List.map (fun c -> c.Campaign.histogram) r.Campaign.cells)
    |> Campaign.merge_histograms
  in
  let any_errors =
    List.exists (fun chip -> dominant_for chip <> []) chips
  in
  if any_errors then begin
    Fmt.pf ppf "dominant failure modes (errors summed over all cells):@.";
    List.iter
      (fun chip ->
        match dominant_for chip with
        | [] -> ()
        | (msg, n) :: _ -> Fmt.pf ppf "  %-8s %s (x%d)@." chip msg n)
      chips
  end;
  match quarantined_cells rows with
  | [] -> ()
  | qs ->
    Fmt.pf ppf
      "degraded: %d cell(s) quarantined after exhausting supervised \
       attempts (marked !n above):@."
      (List.length qs);
    List.iter (fun (where, reason) -> Fmt.pf ppf "  %s: %s@." where reason) qs

let table6 ppf (results : Harden.result list) =
  Fmt.pf ppf "Table 6: empirical fence insertion results@.";
  hr ppf 76;
  Fmt.pf ppf "%-12s %-6s %-14s %-9s %-10s %s@." "app" "init."
    "red. (ref chip)" "agreeing" "converged" "time (mins)";
  hr ppf 76;
  let apps = List.sort_uniq compare (List.map (fun r -> r.Harden.app) results) in
  List.iter
    (fun app ->
      let rs = List.filter (fun r -> r.Harden.app = app) results in
      match rs with
      | [] -> ()
      | reference :: others ->
        let agreeing =
          List.length
            (List.filter
               (fun r ->
                 List.sort compare r.Harden.fences
                 = List.sort compare reference.Harden.fences)
               others)
        in
        let mins =
          List.map (fun r -> r.Harden.elapsed_s /. 60.0) rs
          |> List.fold_left ( +. ) 0.0
        in
        Fmt.pf ppf "%-12s %-6d %-14d %-9d %-10b %.2f@." app
          reference.Harden.initial
          (List.length reference.Harden.fences)
          agreeing
          (List.for_all (fun r -> r.Harden.converged) rs)
          mins;
        Fmt.pf ppf "%-12s   fences: %s@." ""
          (String.concat ", "
             (List.map
                (fun (k, s) -> Printf.sprintf "%s:s%d" k s)
                reference.Harden.fences)))
    apps

let bar width maxv v =
  if maxv <= 0 then ""
  else String.make (Int.max 0 (v * width / maxv)) '#'

let figure3 ppf ~chip (r : Patch_finder.result) =
  Fmt.pf ppf "Figure 3: patch finding on %s (weak behaviours per stressed \
              location, %d runs per point)@." chip r.Patch_finder.runs;
  let maxv =
    List.fold_left (fun m c -> Int.max m c.Patch_finder.weak) 1
      r.Patch_finder.cells
  in
  let distances =
    List.sort_uniq compare
      (List.map (fun c -> c.Patch_finder.distance) r.Patch_finder.cells)
  in
  let show = match distances with a :: b :: c :: _ -> [ a; b; c ] | l -> l in
  List.iter
    (fun idiom ->
      List.iter
        (fun d ->
          Fmt.pf ppf "%s d=%d:@." (Litmus.Test.idiom_name idiom) d;
          List.iter
            (fun c ->
              if c.Patch_finder.idiom = idiom && c.Patch_finder.distance = d
              then
                Fmt.pf ppf "  %4d |%-24s %d@." c.Patch_finder.location
                  (bar 24 maxv c.Patch_finder.weak)
                  c.Patch_finder.weak)
            r.Patch_finder.cells)
        show)
    [ Litmus.Test.MP; Litmus.Test.LB ];
  Fmt.pf ppf "critical patch size: %d@." r.Patch_finder.chosen

let figure4 ppf ~chip (r : Spread_finder.result) =
  Fmt.pf ppf "Figure 4: spread finding on %s (sequence %s)@." chip
    (Access_seq.to_string r.Spread_finder.sequence);
  let maxv =
    List.fold_left
      (fun m p ->
        List.fold_left (fun m (_, v) -> Int.max m v) m p.Spread_finder.scores)
      1 r.Spread_finder.points
  in
  List.iter
    (fun idiom ->
      Fmt.pf ppf "%s:@." (Litmus.Test.idiom_name idiom);
      List.iter
        (fun p ->
          let v = List.assoc idiom p.Spread_finder.scores in
          Fmt.pf ppf "  m=%2d |%-30s %d@." p.Spread_finder.spread
            (bar 30 maxv v) v)
        r.Spread_finder.points)
    Litmus.Test.idioms;
  Fmt.pf ppf "most effective spread: %d@." r.Spread_finder.winner

let figure5 ppf points =
  Fmt.pf ppf
    "Figure 5: cost of fences (modelled cycles / energy units; native \
     execution)@.";
  hr ppf 86;
  Fmt.pf ppf "%-8s %-12s %10s %10s %8s %10s %8s %6s@." "chip" "app" "no-f rt"
    "emp rt" "emp %" "cons rt" "cons %" "#emp";
  hr ppf 86;
  List.iter
    (fun (p : Cost.point) ->
      Fmt.pf ppf "%-8s %-12s %10.0f %10.0f %7.1f%% %10.0f %7.1f%% %6d@."
        p.Cost.chip p.Cost.app p.Cost.no_fences.Cost.runtime
        p.Cost.emp.Cost.runtime
        (Cost.overhead_pct ~base:p.Cost.no_fences.Cost.runtime
           p.Cost.emp.Cost.runtime)
        p.Cost.cons.Cost.runtime
        (Cost.overhead_pct ~base:p.Cost.no_fences.Cost.runtime
           p.Cost.cons.Cost.runtime)
        p.Cost.emp_count)
    points;
  let s = Cost.summarise points in
  Fmt.pf ppf
    "medians: emp fences +%.1f%% runtime, +%.1f%% energy; cons fences \
     +%.1f%% runtime, +%.1f%% energy@."
    s.Cost.median_emp_runtime_pct s.Cost.median_emp_energy_pct
    s.Cost.median_cons_runtime_pct s.Cost.median_cons_energy_pct;
  Fmt.pf ppf "maxima:  emp +%.1f%%, cons +%.1f%% runtime@."
    s.Cost.max_emp_runtime_pct s.Cost.max_cons_runtime_pct

(* ------------------------------------------------------------------ *)
(* Ledger-backed rendering                                              *)

let provenance ppf ~path (h : Runlog.header) =
  Fmt.pf ppf "# ledger: %s | schema %d | campaign %s | seed %d | jobs %d@."
    path h.Runlog.schema h.Runlog.campaign h.Runlog.seed h.Runlog.jobs;
  (match h.Runlog.argv with
  | [] -> ()
  | argv -> Fmt.pf ppf "# argv: %s@." (String.concat " " argv));
  let created =
    if h.Runlog.created = 0.0 then "-"
    else
      let tm = Unix.gmtime h.Runlog.created in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
  in
  Fmt.pf ppf "# created: %s | git: %s@." created
    (Option.value h.Runlog.git ~default:"-");
  (match h.Runlog.shard with
  | None -> ()
  | Some s -> Fmt.pf ppf "# shard: %s (partial ledger; combine with gpuwmm merge)@." s);
  match h.Runlog.merged with
  | None -> ()
  | Some srcs ->
    Fmt.pf ppf "# merged %d shards: %s@." (List.length srcs)
      (String.concat " " srcs)

let table5_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "chip,environment,app,errors,runs,rate,dominant\n";
  let chips, envs = table5_layout rows in
  List.iter
    (fun chip ->
      List.iter
        (fun env ->
          match table5_find rows chip env with
          | None -> ()
          | Some r ->
            List.iter
              (fun (c : Campaign.cell) ->
                let rate =
                  if c.Campaign.runs = 0 then 0.0
                  else
                    float_of_int c.Campaign.errors
                    /. float_of_int c.Campaign.runs
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s,%s,%s,%d,%d,%.4f,%s\n" chip env
                     c.Campaign.app c.Campaign.errors c.Campaign.runs rate
                     (match c.Campaign.quarantined with
                     | Some reason ->
                       "QUARANTINED: "
                       ^ String.map
                           (function ',' -> ';' | ch -> ch)
                           reason
                     | None -> (
                       match Campaign.dominant c with
                       | Some (msg, _) ->
                         String.map (function ',' -> ';' | ch -> ch) msg
                       | None -> ""))))
              r.Campaign.cells)
        envs)
    chips;
  Buffer.contents buf

let table5_md rows =
  let buf = Buffer.create 1024 in
  let chips, envs = table5_layout rows in
  Buffer.add_string buf
    "Table 5: effectiveness of the testing environments (a / b; b = apps \
     with errors, a = apps with error rate over 5%)\n\n";
  Buffer.add_string buf
    ("| chip | " ^ String.concat " | " envs ^ " |\n");
  Buffer.add_string buf
    ("|---|" ^ String.concat "" (List.map (fun _ -> "---|") envs) ^ "\n");
  List.iter
    (fun chip ->
      Buffer.add_string buf ("| " ^ chip ^ " |");
      List.iter
        (fun env ->
          match table5_find rows chip env with
          | Some r ->
            Buffer.add_string buf (Printf.sprintf " %s |" (table5_entry r))
          | None -> Buffer.add_string buf " - |")
        envs;
      Buffer.add_string buf "\n")
    chips;
  Buffer.contents buf

let table2_csv results =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "chip,patch,sequence,spread,minutes\n";
  List.iter
    (fun ((r : Tuning.result), mins) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%d,%.2f\n" r.Tuning.chip
           r.Tuning.patch.Patch_finder.chosen
           (Access_seq.to_string r.Tuning.sequences.Seq_finder.winner)
           r.Tuning.spreads.Spread_finder.winner mins))
    results;
  Buffer.contents buf

let table3_csv (r : Seq_finder.result) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat ","
       ("sequence" :: "total"
       :: List.map Litmus.Test.idiom_name Litmus.Test.idioms)
    ^ "\n");
  List.iter
    (fun (s : Seq_finder.scored) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s\n"
           (Access_seq.to_string s.Seq_finder.sequence)
           s.Seq_finder.total
           (String.concat ","
              (List.map
                 (fun i ->
                   match List.assoc_opt i s.Seq_finder.scores with
                   | Some n -> string_of_int n
                   | None -> "0")
                 Litmus.Test.idioms))))
    r.Seq_finder.table;
  Buffer.contents buf

let table6_csv (results : Harden.result list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "app,chip,initial,fences,fence_sites,converged,rounds,checks\n";
  List.iter
    (fun (r : Harden.result) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d,%s,%b,%d,%d\n" r.Harden.app
           r.Harden.chip r.Harden.initial
           (List.length r.Harden.fences)
           (String.concat ";"
              (List.map
                 (fun (k, s) -> Printf.sprintf "%s:s%d" k s)
                 r.Harden.fences))
           r.Harden.converged r.Harden.rounds r.Harden.checks))
    results;
  Buffer.contents buf

let patches_csv results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "chip,idiom,distance,location,weak\n";
  List.iter
    (fun (chip, (r : Patch_finder.result)) ->
      List.iter
        (fun (c : Patch_finder.cell) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%d,%d,%d\n" chip
               (Litmus.Test.idiom_name c.Patch_finder.idiom)
               c.Patch_finder.distance c.Patch_finder.location
               c.Patch_finder.weak))
        r.Patch_finder.cells)
    results;
  Buffer.contents buf

let spreads_csv results =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "chip,spread,idiom,score\n";
  List.iter
    (fun (chip, (r : Spread_finder.result)) ->
      List.iter
        (fun (p : Spread_finder.point) ->
          List.iter
            (fun (idiom, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s,%d,%s,%d\n" chip p.Spread_finder.spread
                   (Litmus.Test.idiom_name idiom) v))
            p.Spread_finder.scores)
        r.Spread_finder.points)
    results;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Campaign comparison                                                  *)

type comparison = {
  regressions : string list;
  improvements : string list;
  notes : string list;
}

let error_rate (c : Campaign.cell) =
  if c.Campaign.runs = 0 then 0.0
  else float_of_int c.Campaign.errors /. float_of_int c.Campaign.runs

(* The tool under comparison is a *testing* environment: its job is to
   expose errors.  A cell whose error-exposure rate drops by more than
   the tolerance is therefore a regression (the candidate lost testing
   power); a rise is an improvement.  Failure modes appearing or
   vanishing from the per-cell histograms are surfaced as notes. *)
let compare_campaigns ~tolerance ~baseline ~candidate =
  let regressions = ref [] in
  let improvements = ref [] in
  let notes = ref [] in
  let reg m = regressions := m :: !regressions in
  let imp m = improvements := m :: !improvements in
  let note m = notes := m :: !notes in
  let find rows chip env =
    List.find_opt
      (fun r -> r.Campaign.chip = chip && r.Campaign.environment = env)
      rows
  in
  List.iter
    (fun (b : Campaign.row) ->
      let where = Printf.sprintf "%s/%s" b.Campaign.chip b.Campaign.environment in
      match find candidate b.Campaign.chip b.Campaign.environment with
      | None -> reg (Printf.sprintf "%s: row missing from candidate" where)
      | Some c ->
        List.iter
          (fun (bc : Campaign.cell) ->
            let cell = Printf.sprintf "%s/%s" where bc.Campaign.app in
            match
              List.find_opt
                (fun cc -> cc.Campaign.app = bc.Campaign.app)
                c.Campaign.cells
            with
            | None -> reg (Printf.sprintf "%s: cell missing from candidate" cell)
            | Some cc when cc.Campaign.quarantined <> None ->
              (* A quarantined candidate cell measured nothing: that is a
                 loss of testing power regardless of rates. *)
              reg
                (Printf.sprintf "%s: cell quarantined in candidate (%s)" cell
                   (Option.value ~default:"" cc.Campaign.quarantined))
            | Some _ when bc.Campaign.quarantined <> None ->
              note
                (Printf.sprintf
                   "%s: recovered (baseline was quarantined: %s)" cell
                   (Option.value ~default:"" bc.Campaign.quarantined))
            | Some cc ->
              let rb = error_rate bc and rc = error_rate cc in
              let delta = rc -. rb in
              if delta < -.tolerance then
                reg
                  (Printf.sprintf
                     "%s: error-exposure rate fell %.2f%% -> %.2f%%" cell
                     (100.0 *. rb) (100.0 *. rc))
              else if delta > tolerance then
                imp
                  (Printf.sprintf
                     "%s: error-exposure rate rose %.2f%% -> %.2f%%" cell
                     (100.0 *. rb) (100.0 *. rc));
              let msgs h = List.map fst h in
              let bm = msgs bc.Campaign.histogram in
              let cm = msgs cc.Campaign.histogram in
              List.iter
                (fun m ->
                  if not (List.mem m cm) then
                    note (Printf.sprintf "%s: failure mode vanished: %s" cell m))
                bm;
              List.iter
                (fun m ->
                  if not (List.mem m bm) then
                    note (Printf.sprintf "%s: new failure mode: %s" cell m))
                cm)
          b.Campaign.cells)
    baseline;
  List.iter
    (fun (c : Campaign.row) ->
      if find baseline c.Campaign.chip c.Campaign.environment = None then
        note
          (Printf.sprintf "%s/%s: row only in candidate" c.Campaign.chip
             c.Campaign.environment))
    candidate;
  { regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    notes = List.rev !notes }

let pp_comparison ppf c =
  let section title = function
    | [] -> ()
    | items ->
      Fmt.pf ppf "%s:@." title;
      List.iter (fun i -> Fmt.pf ppf "  %s@." i) items
  in
  section "regressions" c.regressions;
  section "improvements" c.improvements;
  section "notes" c.notes;
  if c.regressions = [] && c.improvements = [] && c.notes = [] then
    Fmt.pf ppf "no differences@."
  else
    Fmt.pf ppf "%d regression(s), %d improvement(s), %d note(s)@."
      (List.length c.regressions)
      (List.length c.improvements)
      (List.length c.notes)

let cost_csv points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "chip,app,nvml,no_runtime,no_energy,emp_runtime,emp_energy,cons_runtime,cons_energy,emp_fences\n";
  List.iter
    (fun (p : Cost.point) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%b,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d\n"
           p.Cost.chip p.Cost.app p.Cost.nvml p.Cost.no_fences.Cost.runtime
           p.Cost.no_fences.Cost.energy p.Cost.emp.Cost.runtime
           p.Cost.emp.Cost.energy p.Cost.cons.Cost.runtime
           p.Cost.cons.Cost.energy p.Cost.emp_count))
    points;
  Buffer.contents buf
