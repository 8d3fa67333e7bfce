type cell = {
  idiom : Litmus.Test.idiom;
  distance : int;
  location : int;
  weak : int;
}

type result = {
  cells : cell list;
  runs : int;
  per_idiom : (Litmus.Test.idiom * int option) list;
  critical : int option;
  chosen : int;
}

let patch_sizes_of_row ~eps ~stride cells =
  let sorted = List.sort compare cells in
  (* A single sample above threshold cannot resolve a patch width at
     stride > 1 (it only bounds it above by the stride), so lone samples
     are treated as noise rather than 1-sample patches. *)
  let min_run = if stride > 1 then 2 else 1 in
  let close acc run = if run >= min_run then (run * stride) :: acc else acc in
  let rec go acc run prev = function
    | [] -> close acc run
    | (loc, weak) :: rest ->
      let contiguous = match prev with Some p -> loc = p + stride | None -> false in
      if weak > eps then
        if contiguous || run = 0 then go acc (run + 1) (Some loc) rest
        else go (close acc run) 1 (Some loc) rest
      else go (close acc run) 0 (Some loc) rest
  in
  go [] 0 None sorted

(* The most frequent patch size over all (distance) rows of one idiom. *)
let modal_patch_size sizes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
    sizes;
  Hashtbl.fold
    (fun size count acc ->
      match acc with
      | Some (_, c) when c >= count -> acc
      | Some _ | None -> Some (size, count))
    tbl None
  |> Option.map fst

(* ------------------------------------------------------------------ *)
(* Ledger codecs.  Idioms serialise by their display name; the codecs
   live here because every finder stage shares them. *)

let idiom =
  Codec.conv Litmus.Test.idiom_name
    (fun s ->
      match
        List.find_opt (fun i -> Litmus.Test.idiom_name i = s) Litmus.Test.idioms
      with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "unknown idiom %S" s))
    Codec.string

let scores =
  Codec.(
    list
      (obj (fun idiom n -> (idiom, n))
      |> mem "idiom" idiom fst |> mem "n" int snd |> seal))

let result =
  let per_idiom =
    Codec.(
      obj (fun idiom size -> (idiom, size))
      |> mem "idiom" idiom fst |> mem "size" (nullable int) snd |> seal)
  in
  let cell =
    Codec.(
      obj (fun idiom distance location weak ->
          { idiom; distance; location; weak })
      |> mem "idiom" idiom (fun c -> c.idiom)
      |> mem "d" int (fun c -> c.distance)
      |> mem "loc" int (fun c -> c.location)
      |> mem "weak" int (fun c -> c.weak)
      |> seal)
  in
  Codec.(
    obj (fun runs chosen critical per_idiom cells ->
        { cells; runs; per_idiom; critical; chosen })
    |> mem "runs" int (fun r -> r.runs)
    |> mem "chosen" int (fun r -> r.chosen)
    |> mem "critical" (nullable int) (fun r -> r.critical)
    |> mem "per_idiom" (list per_idiom) (fun r -> r.per_idiom)
    |> mem "cells" (list cell) (fun r -> r.cells)
    |> seal)

let run ?backend ?journal ~chip ~seed ~budget () =
  let b = budget in
  let locations =
    let rec go l acc =
      if l >= b.Budget.max_location then List.rev acc
      else go (l + b.Budget.location_stride) (l :: acc)
    in
    go 0 []
  in
  (* Plan: one job per (idiom, distance, location) point, in the
     historical nesting order so job seeds match the former loop. *)
  let points =
    List.concat_map
      (fun idiom ->
        List.concat_map
          (fun distance ->
            List.map (fun location -> (idiom, distance, location)) locations)
          b.Budget.distances_patch)
      Litmus.Test.idioms
  in
  let weaks =
    Exec.run ?backend
      ~label:(Printf.sprintf "patch-finding on %s" chip.Gpusim.Chip.name)
      ?journal:(Option.map (fun j -> Runlog.extend j "patch") journal)
      ~quarantine:(fun _ _ -> 0)
      ~codec:Runlog.int_codec ~execs_per_job:b.Budget.runs_patch ~seed
      ~f:(fun ~seed (idiom, distance, location) ->
        let strategy =
          Stress.Fixed
            { sequence = [ Access_seq.St; Access_seq.Ld ];
              locations = [ location ];
              scratch_words = b.Budget.max_location }
        in
        let env =
          Environment.for_litmus (Environment.make strategy ~randomise:false)
        in
        Litmus.Runner.count_weak ~chip ~seed ~env ~runs:b.Budget.runs_patch
          { Litmus.Test.idiom; distance })
      points
  in
  let cells =
    List.map2
      (fun (idiom, distance, location) weak ->
        { idiom; distance; location; weak })
      points weaks
  in
  let per_idiom =
    List.map
      (fun idiom ->
        let sizes =
          List.concat_map
            (fun distance ->
              let row =
                List.filter_map
                  (fun c ->
                    if c.idiom = idiom && c.distance = distance then
                      Some (c.location, c.weak)
                    else None)
                  cells
              in
              patch_sizes_of_row ~eps:b.Budget.noise_threshold
                ~stride:b.Budget.location_stride row)
            b.Budget.distances_patch
        in
        (idiom, modal_patch_size sizes))
      Litmus.Test.idioms
  in
  let observed = List.filter_map snd per_idiom in
  let critical =
    match List.sort_uniq compare observed with
    | [ p ] when List.length observed = List.length Litmus.Test.idioms ->
      Some p
    | _ -> None
  in
  (* Fallback mirrors the paper's treatment of the 980: when a test shows
     no patches (or the tests disagree), take the modal size among the
     tests that did show patches; as a last resort use the architectural
     patch granularity. *)
  let chosen =
    match critical with
    | Some p -> p
    | None -> (
      match modal_patch_size observed with
      | Some p -> p
      | None -> chip.Gpusim.Chip.weakness.patch_size)
  in
  { cells; runs = b.Budget.runs_patch; per_idiom; critical; chosen }
