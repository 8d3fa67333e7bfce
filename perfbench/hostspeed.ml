(* The host-speed probe: how fast this host runs fixed OCaml code right
   now, compared with the machine the benchmark was tuned on.

     hostspeed.exe

   prints one line, "<factor> <s1> <s2> <s3>": the seconds each of three
   fixed kernels took, and the geometric mean of reference seconds over
   measured seconds.  A factor of 0.8 means the host currently runs this
   code at 80% of the reference speed.

   On a shared VM, other tenants slow every process down by up to a
   third for minutes at a time, and that moves a CPU-bound median more
   than any bound can allow.  Averaged over a run, these kernels slow
   down with the workload (correlation above 0.9 over 25 s windows), so
   the harness divides its CPU-bound figures by the run's median factor.
   The kernels depend only on the OCaml standard library and run in a
   fresh process with the default GC settings, so nothing a change to
   the program does can move them.  Their mix is the simulator's: a
   variant-dispatching interpreter loop, hash-table probes, and
   allocation-heavy balanced-tree inserts with a list sort. *)

let now = Unix.gettimeofday

type ins = Push of int | Add | Mul | Dup | Swap | Pop | Jnz of int | Dec

let program =
  let r = Random.State.make [| 7 |] in
  Array.init 64 (fun i ->
      match Random.State.int r 7 with
      | 0 -> Push (Random.State.int r 100)
      | 1 -> Add
      | 2 -> Mul
      | 3 -> Dup
      | 4 -> Swap
      | 5 -> Pop
      | _ -> if i > 4 then Jnz (Random.State.int r i) else Dec)

let interpreter () =
  let st = Array.make 256 1 in
  let sp = ref 4 and pc = ref 0 and acc = ref 0 in
  for fuel = 8_000_000 downto 1 do
    (match program.(!pc) with
    | Push n -> if !sp < 250 then (st.(!sp) <- n; incr sp)
    | Add -> if !sp > 2 then (st.(!sp - 2) <- (st.(!sp - 1) + st.(!sp - 2)) land 0xffff; decr sp)
    | Mul -> if !sp > 2 then (st.(!sp - 2) <- st.(!sp - 1) * st.(!sp - 2) land 0xffff; decr sp)
    | Dup -> if !sp < 250 then (st.(!sp) <- st.(!sp - 1); incr sp)
    | Swap ->
      if !sp > 2 then begin
        let a = st.(!sp - 1) in
        st.(!sp - 1) <- st.(!sp - 2);
        st.(!sp - 2) <- a
      end
    | Pop -> if !sp > 2 then decr sp
    | Dec -> st.(!sp - 1) <- st.(!sp - 1) - 1
    | Jnz k ->
      acc := !acc + st.(!sp - 1);
      if (st.(!sp - 1) + fuel) land 3 <> 0 then pc := k - 1);
    pc := (!pc + 1) land 63
  done;
  ignore (Sys.opaque_identity !acc)

let hashtbl () =
  let h = Hashtbl.create 16 in
  for i = 1 to 100_000 do
    Hashtbl.replace h (i * 7919 land 0xfffff) (float_of_int i)
  done;
  let s = ref 0.0 in
  for i = 1 to 200_000 do
    match Hashtbl.find_opt h (i * 31 land 0xfffff) with
    | Some f -> s := !s +. f
    | None -> ()
  done;
  ignore (Sys.opaque_identity !s)

module M = Map.Make (Int)

let tree () =
  let m = ref M.empty in
  for i = 1 to 60_000 do
    m := M.add (i * 7919 land 0xffff) (Some i) !m
  done;
  let s = ref 0 in
  M.iter (fun k v -> match v with Some x -> s := !s + k + x | None -> ()) !m;
  let l = List.init 50_000 (fun i -> i * 31 land 1023) in
  ignore (Sys.opaque_identity (List.sort compare (List.map (fun x -> x + (!s land 7)) l)))

(* Each kernel with its median seconds on the reference machine, a
   shared 2-vCPU Xeon VM. *)
let kernels = [ (interpreter, 0.0243); (hashtbl, 0.0650); (tree, 0.0572) ]

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let () =
  let times = List.map (fun (f, _) -> time f) kernels in
  let log_speed =
    List.fold_left2 (fun acc (_, r) t -> acc +. log (r /. t)) 0.0 kernels times
  in
  let factor = exp (log_speed /. float_of_int (List.length kernels)) in
  print_endline
    (String.concat " " (Printf.sprintf "%.6f" factor :: List.map (Printf.sprintf "%.6f") times))
