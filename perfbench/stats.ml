(* Order statistics for reporting timings. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let midmean xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.midmean: no samples"
  else begin
    let drop = n / 4 in
    let kept = Array.sub a drop (n - (2 * drop)) in
    Array.fold_left ( +. ) 0.0 kept /. float_of_int (Array.length kept)
  end

let candidate_percentiles = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Nearest-rank percentile value. *)
let percentile_value a p =
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let tail_percentile xs =
  let a = sorted xs in
  if Array.length a = 0 then None
  else
    List.find_map
      (fun p ->
        let v = percentile_value a p in
        let beyond = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a in
        if beyond >= 10 then Some (p, v) else None)
      candidate_percentiles
