(* Every record codec round-trips a real value: decode (encode v) = Ok v,
   through the JSON printer and parser.  The values come from small
   driver runs rather than generators, so same-typed fields hold
   different values and a codec whose constructor takes two of them in
   the wrong order fails here. *)

type case = Case : string * 'a Core.Codec.t * 'a -> case

let chip = Gpusim.Chip.k20
let apps = List.filter_map Apps.Registry.by_name [ "cbe-dot"; "sdk-red" ]
let temp () = Filename.temp_file "codec" ".jsonl"

(* Two Table 5 rows of the GTX 980 written to a ledger outside
   deterministic mode, so the header, job and footer records carry real
   timing fields.  At 40 runs no-str- exposes one application in one
   run, which makes it capable but not effective. *)
let campaign () =
  let path = temp () in
  let grid = Core.Json.String "grid" in
  let header =
    Core.Runlog.make_header ~jobs:2 ~shard:"1/2" ~campaign:"test" ~seed:11
      ~grid ()
  in
  let sink = Core.Runlog.create ~deterministic:false ~path header in
  let env c label = Option.get (Core.Campaign.environment ~chip:c label) in
  let rows =
    Core.Campaign.run ~backend:(Core.Exec.Parallel 2)
      ~journal:(Core.Runlog.journal ~sink "")
      ~chips:[ Gpusim.Chip.gtx980 ]
      ~environments_for:(fun c -> [ env c "no-str-"; env c "sys-str+" ])
      ~apps:Apps.Registry.all ~runs:40 ~seed:11 ()
  in
  Core.Runlog.close sink;
  match Core.Runlog.load path with
  | Error e -> Alcotest.fail e
  | Ok l -> (rows, l)

(* A beat from the middle of a real campaign: its first job holds the
   campaign open until the emitter has announced the plan, so the beat
   shows some of the jobs done. *)
let mid_campaign_beat () =
  let path = temp () in
  let emitter = Core.Heartbeat.start ~interval_s:0.01 ~path () in
  let mid () =
    List.find_opt
      (fun r ->
        r.Core.Heartbeat.label = "codec" && r.jobs_total > 0
        && r.jobs_done < r.jobs_total)
      (Core.Heartbeat.load path)
  in
  let hold () =
    let t0 = Unix.gettimeofday () in
    while mid () = None && Unix.gettimeofday () -. t0 < 10.0 do
      Unix.sleepf 0.01
    done
  in
  ignore
    (Core.Exec.run ~label:"codec" ~seed:3
       ~f:(fun ~seed i -> if i = 0 then hold (); seed)
       [ 0; 1; 2 ]);
  Core.Heartbeat.stop emitter;
  match mid () with
  | Some r -> r
  | None -> Alcotest.fail "no beat from the middle of the campaign"

let spec () =
  match
    Core.Serve.parse_submission ~default_max_attempts:3
      {|{"chip":"K20","app":"cbe-dot","runs":5,"seed":9,"workers":3,
         "priority":1,"max_attempts":4}|}
  with
  | Ok s -> { s with Core.Queue.id = "job-7" }
  | Error e -> Alcotest.fail e

let cases () =
  let rows, ledger = campaign () in
  let tuning =
    Core.Tuning.run ~chip:Gpusim.Chip.titan ~seed:2 ~budget:Core.Budget.quick
      ()
  in
  let harden =
    Core.Harden.insert ~chip
      ~config:
        { (Core.Harden.default_config ~chip) with
          initial_iterations = 4;
          stability_runs = 8 }
      ~app:(List.hd apps) ~seed:5 ()
  in
  let points =
    Core.Cost.run ~chips:[ chip ] ~apps ~emp_for:(fun _ _ -> []) ~runs:5
      ~seed:6 ()
  in
  let header = ledger.Core.Runlog.header in
  [ Case ("Runlog.header", Core.Runlog.header, header);
    Case
      ( "Runlog.header, merged",
        Core.Runlog.header,
        { header with
          shard = None;
          merged = Some [ "a.jsonl.shard1"; "a.jsonl.shard2" ] } );
    Case ("Runlog.job", Core.Runlog.job, List.nth ledger.Core.Runlog.jobs 1);
    Case
      ( "Runlog.job, quarantined",
        Core.Runlog.job,
        { (List.hd ledger.Core.Runlog.jobs) with
          attempts = 3; failed = Some "boom"; result = Core.Json.Null } );
    Case ("Runlog.footer", Core.Runlog.footer, Option.get ledger.footer);
    Case ("Heartbeat.record", Core.Heartbeat.record, mid_campaign_beat ());
    Case ("Queue.spec", Core.Queue.spec, spec ());
    Case
      ( "Campaign.cell",
        Core.Campaign.cell,
        List.hd (List.rev (List.hd rows).Core.Campaign.cells) );
    Case ("Campaign.rows", Core.Campaign.rows, rows);
    Case ("Patch_finder.result", Core.Patch_finder.result, tuning.patch);
    Case ("Seq_finder.result", Core.Seq_finder.result, tuning.sequences);
    Case ("Spread_finder.result", Core.Spread_finder.result, tuning.spreads);
    Case ("Tuning.result", Core.Tuning.result, tuning);
    Case ("Harden.results", Core.Harden.results, [ harden ]);
    Case ("Cost.points", Core.Cost.points, points) ]

let test_round_trips () =
  List.iter
    (fun (Case (name, codec, v)) ->
      let line = Core.Json.to_string (Core.Codec.encode codec v) in
      match
        Result.bind (Core.Json.of_string line) (Core.Codec.decode codec)
      with
      | Ok v' -> Alcotest.(check bool) name true (v' = v)
      | Error e -> Alcotest.failf "%s: %s" name e)
    (cases ())

let () =
  Alcotest.run "codec"
    [ ( "round trip",
        [ Alcotest.test_case "decode (encode v) = Ok v" `Quick
            test_round_trips ] ) ]
