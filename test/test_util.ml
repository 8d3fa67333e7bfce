(* Shared helpers for the test suites (linked into every test executable). *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* A device with a given chip and ambient environment. *)
let fresh_sim ?(chip = Gpusim.Chip.k20) ?env ~seed () =
  let sim = Gpusim.Sim.create ~chip ~seed () in
  (match env with Some e -> Gpusim.Sim.set_environment sim e | None -> ());
  sim

(* Run a kernel on the SC reference chip and return a reader. *)
let run_sc ?(grid = 1) ?(block = 1) ?(shared_words = 64) kernel args =
  let sim = Gpusim.Sim.create ~chip:Gpusim.Chip.sequential ~seed:1 () in
  let result =
    Gpusim.Sim.launch sim ~shared_words ~grid ~block kernel ~args
  in
  (sim, result)

let sys_plus_env chip =
  Core.Environment.for_app
    (Core.Environment.sys_plus ~tuned:(Core.Tuning.shipped ~chip))

(* The crash drill for any JSONL state file: [append] every record of
   [records] to [path], cut the file at byte [cut mod (size + 1)],
   [append] [extra], and return what a reload must then yield: the
   records whose text lies wholly before the cut, then [extra]. *)
let cut_and_append ~path ~append ~to_json records extra cut =
  List.iter append records;
  let cut = cut mod ((Unix.stat path).Unix.st_size + 1) in
  Unix.truncate path cut;
  append extra;
  let rec whole off = function
    | [] -> []
    | r :: rest ->
      let stop = off + String.length (Core.Json.to_string (to_json r)) in
      if stop <= cut then r :: whole (stop + 1) rest else []
  in
  whole 0 records @ [ extra ]
