(* The campaign list shared by the fanout and serve workloads.

   The shape (chip, environment, runs per cell) is fixed so that every
   seed gives the same mix of small and mid-sized campaigns; the seed
   picks each campaign's master seed.  Every campaign covers all ten
   applications, so each of its two shards owns five cells.  Sizes run
   from a tenth to a few tenths of a second on one core, which keeps
   worker spawn, runtime start-up, the supervisor's reap poll and the
   final replay or merge a large share of each campaign. *)

type t = {
  chip : string;
  env : string;
  runs : int;
  seed : int;
}

let shape =
  [ ("K20", "sys-str+", 3);
    ("980", "sys-str+", 4);
    ("Titan", "rand-str+", 6);
    ("K20", "cache-str+", 5);
    ("C2075", "sys-str-", 3);
    ("770", "no-str+", 12) ]

(* The input pool: [pool] slots, each the shape with its own campaign
   seeds, since what a campaign costs depends on its seed (which runs
   time out, for one).  The reference holds every campaign's ledger
   digests. *)
let pool = 2

let list ~slot =
  List.mapi
    (fun i (chip, env, runs) ->
      { chip; env; runs; seed = Gpusim.Rng.subseed 11 ((1000 * (slot + 1)) + i) })
    shape

let apps = Apps.Registry.all

let execs c = c.runs * List.length apps

let key c = Printf.sprintf "campaign.%s.%s.r%d.s%d" c.chip c.env c.runs c.seed

let chip_of c = Option.get (Gpusim.Chip.by_name c.chip)

let env_of c =
  let chip = chip_of c in
  List.find
    (fun e -> e.Core.Environment.label = c.env)
    (Core.Environment.all ~tuned:(Core.Tuning.shipped ~chip))

(* gpuwmm test with two worker processes, the way a user runs it. *)
let test_argv c ~log ~spans =
  [ Common.gpuwmm_exe (); "test"; "--chip"; c.chip; "--env"; c.env;
    "--runs"; string_of_int c.runs; "--seed"; string_of_int c.seed;
    "-j"; "2"; "-q"; "--log"; log ]
  @ if spans then [ "--spans" ] else []

let submit_body c =
  Core.Json.to_string
    (Core.Json.Assoc
       [ ("chip", Core.Json.String c.chip); ("env", Core.Json.String c.env);
         ("runs", Core.Json.Int c.runs); ("seed", Core.Json.Int c.seed);
         ("workers", Core.Json.Int 2) ])

(* The campaign's cells with the seeds gpuwmm test plans for them. *)
let cells c =
  let chip = chip_of c and env = env_of c in
  List.map
    (fun (j : Apps.App.t Core.Exec.job) -> (chip, env, j.payload, j.seed))
    (Core.Exec.plan ~seed:c.seed apps)

(* Simulated statistics of two cells per campaign. *)
let sample list =
  let cells =
    List.concat_map (fun c -> List.filteri (fun i _ -> i mod 5 = 0) (cells c)) list
  in
  fst (Simstats.app_sample cells)

(* Plan indices owned by shard k of 2, for the fan-out model. *)
let shard_indices ~k =
  Core.Shard.indices (Core.Shard.make ~k ~n:2 ()) ~total:(List.length apps)
