(* Deterministic partitioning of an Exec plan into k/N shards.

   A shard is a pure function of (k, N) over plan indices — per-job
   seeds are pre-derived from the plan index (Exec.plan), so a shard
   executes exactly the jobs it owns with exactly the seeds the
   unsharded run would have used.  Shard k of N owns the indices
   congruent to k-1 mod N, which balances heterogeneous grids
   (neighbouring cells of a campaign land on different shards).

   [rank] maps an owned plan index to its position within the shard's
   own ledger stream (0, 1, 2, ...): shard ledgers are written in rank
   order, and `gpuwmm merge` interleaves them back into plan order. *)

type t = { k : int; n : int }

let max_shards = 512

let make ~k ~n () =
  if n < 1 || n > max_shards then
    invalid_arg
      (Printf.sprintf "Shard.make: N must be in 1..%d (got %d)" max_shards n);
  if k < 1 || k > n then
    invalid_arg
      (Printf.sprintf "Shard.make: k must be in 1..%d (got %d)" n k);
  { k; n }

let to_string t = Printf.sprintf "%d/%d" t.k t.n

let parse_error s =
  Printf.sprintf "invalid shard spec %S: expected k/N with 1 <= k <= N <= %d"
    s max_shards

let parse s =
  let int_of x = int_of_string_opt (String.trim x) in
  match String.split_on_char '/' s with
  | [ ks; ns ] -> (
    match (int_of ks, int_of ns) with
    | Some k, Some n when n >= 1 && n <= max_shards && k >= 1 && k <= n ->
      Ok { k; n }
    | _ -> Error (parse_error s))
  | _ -> Error (parse_error s)

let count t ~total =
  if total > t.k - 1 then ((total - t.k) / t.n) + 1 else 0

let owns t ~total index =
  index >= 0 && index < total && index mod t.n = t.k - 1

let rank t ~total index =
  if not (owns t ~total index) then
    invalid_arg
      (Printf.sprintf "Shard.rank: shard %s does not own index %d (total %d)"
         (to_string t) index total)
  else index / t.n

let indices t ~total =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if owns t ~total i then i :: acc else acc)
  in
  go (total - 1) []
