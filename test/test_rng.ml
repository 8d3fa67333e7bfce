(* The PRNG underpins reproducibility of every experiment. *)

let test_determinism () =
  let a = Gpusim.Rng.create 1234 and b = Gpusim.Rng.create 1234 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Gpusim.Rng.int64 a) (Gpusim.Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Gpusim.Rng.create 1 and b = Gpusim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Gpusim.Rng.int64 a = Gpusim.Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Gpusim.Rng.create 7 in
  let b = Gpusim.Rng.copy a in
  let va = Gpusim.Rng.int64 a in
  let vb = Gpusim.Rng.int64 b in
  Alcotest.(check int64) "copy resumes at same point" va vb;
  ignore (Gpusim.Rng.int64 a);
  let va2 = Gpusim.Rng.int64 a and vb2 = Gpusim.Rng.int64 b in
  Alcotest.(check bool) "diverge after unequal draws" true (va2 <> vb2)

let test_split_independent () =
  let a = Gpusim.Rng.create 99 in
  let b = Gpusim.Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Gpusim.Rng.int64 a = Gpusim.Rng.int64 b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let prop_int_bounds =
  QCheck.Test.make ~name:"int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
  @@ fun (seed, n) ->
  let t = Gpusim.Rng.create seed in
  let v = Gpusim.Rng.int t n in
  v >= 0 && v < n

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int_in within inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
  @@ fun (seed, lo, width) ->
  let hi = lo + width in
  let t = Gpusim.Rng.create seed in
  let v = Gpusim.Rng.int_in t lo hi in
  v >= lo && v <= hi

let prop_float_unit =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int
  @@ fun seed ->
  let t = Gpusim.Rng.create seed in
  let v = Gpusim.Rng.float t in
  v >= 0.0 && v < 1.0

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (int_range 0 30))
  @@ fun (seed, n) ->
  let t = Gpusim.Rng.create seed in
  let a = Array.init n (fun i -> i) in
  Gpusim.Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  sorted = Array.init n (fun i -> i)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_distinct: distinct, in range, right size"
    ~count:200
    QCheck.(pair small_int (int_range 0 20))
  @@ fun (seed, n) ->
  let t = Gpusim.Rng.create seed in
  let m = if n = 0 then 0 else Gpusim.Rng.int t (n + 1) in
  let s = Gpusim.Rng.sample_distinct t m n in
  List.length s = m
  && List.sort_uniq compare s = List.sort compare s
  && List.for_all (fun x -> x >= 0 && x < n) s

(* [below t (threshold p)] is [chance t p] on the same draw, and leaves
   the generator where [chance] does: at the scheduler's three constant
   coins and at any p in (0, 1). *)
let prop_below_is_chance =
  QCheck.Test.make ~name:"below at threshold p = chance p" ~count:500
    QCheck.(pair int (float_bound_exclusive 1.0))
  @@ fun (seed, p) ->
  QCheck.assume (p > 0.0);
  List.for_all
    (fun p ->
      let thr = Gpusim.Rng.threshold p in
      let a = Gpusim.Rng.create seed in
      let b = Gpusim.Rng.copy a in
      List.for_all
        (fun _ -> Gpusim.Rng.below a thr = Gpusim.Rng.chance b p)
        (List.init 64 Fun.id)
      && Gpusim.Rng.int64 a = Gpusim.Rng.int64 b)
    [ p; 0.5; 0.65; 0.7 ]

(* [skip] must leave the generator exactly where one draw of any kind
   would, at any point of any stream: the scheduler takes it in place of
   a coin whose outcome it would ignore.  [chance] consumes a draw only
   for 0 < p < 1, so only those [p] are drawn. *)
let prop_skip_is_one_draw =
  QCheck.Test.make ~name:"skip = one draw of any kind" ~count:500
    QCheck.(
      quad int (int_range 0 40) (int_range 0 4)
        (float_bound_exclusive 1.0))
  @@ fun (seed, before, kind, p) ->
  QCheck.assume (p > 0.0);
  let a = Gpusim.Rng.create seed in
  for _ = 1 to before do
    ignore (Gpusim.Rng.int64 a)
  done;
  let b = Gpusim.Rng.copy a in
  Gpusim.Rng.skip a;
  (match kind with
  | 0 -> ignore (Gpusim.Rng.int64 b)
  | 1 -> ignore (Gpusim.Rng.bits30 b)
  | 2 -> ignore (Gpusim.Rng.float b)
  | 3 -> ignore (Gpusim.Rng.bool b)
  | _ -> ignore (Gpusim.Rng.chance b p));
  List.init 4 (fun _ -> Gpusim.Rng.int64 a)
  = List.init 4 (fun _ -> Gpusim.Rng.int64 b)

let test_uniformity () =
  (* Coarse chi-square-free sanity: each bucket of 8 gets 10-40% over 1000
     draws of [Rng.int t 8]. *)
  let t = Gpusim.Rng.create 5 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 1000 do
    let v = Gpusim.Rng.int t 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d reasonable (%d)" i c)
        true
        (c > 60 && c < 250))
    buckets

(* [threshold p] must be the exact integer boundary of [float t < p] over
   the draw's top 53 bits: the last value below it is a 53-bit draw that
   [chance] accepts, and the threshold itself one that it refuses.  A
   threshold one off (from [Float.floor] or [Float.round] in place of
   [Float.ceil]) changes one draw in 2^53, which no test on random draws
   would see; at these probabilities the boundary check does. *)
let test_threshold_boundary () =
  let check_p p =
    let thr = Gpusim.Rng.threshold p in
    let at k = Float.ldexp (float_of_int k) (-53) in
    if not (at (thr - 1) < p && not (at thr < p)) then
      Alcotest.failf "threshold %h = %d is not the boundary of draw < p" p thr
  in
  let exact = [ 0.5; 0.65; 0.7; 0.25; 0.375; Float.ldexp 1.0 (-53);
                Float.ldexp 3.0 (-53); Float.pred 1.0; Float.ldexp 1.0 (-1074) ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun q -> if q > 0.0 && q < 1.0 then check_p q)
        [ p; Float.pred p; Float.succ p ])
    exact;
  let t = Gpusim.Rng.create 17 in
  for _ = 1 to 10_000 do
    (* 62 random bits over 2^62: full-precision p, mostly not a multiple
       of 2^-53 *)
    let p =
      Float.ldexp
        (Int64.to_float (Int64.shift_right_logical (Gpusim.Rng.int64 t) 2))
        (-62)
    in
    if p > 0.0 && p < 1.0 then check_p p
  done

let test_threshold_refuses () =
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "threshold %h" p)
        (Invalid_argument "Rng.threshold: probability must be in (0, 1)")
        (fun () -> ignore (Gpusim.Rng.threshold p)))
    [ 0.0; 1.0; -0.5; Float.nan; Float.infinity; -0.0 ]

(* [Rng.int] before its mask became a bit smear, kept verbatim as the
   reference: the mask loop and the rejection loop. *)
let int_reference t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over 30 bits avoids modulo bias for the small
     bounds used throughout the simulator. *)
  if n > 1 lsl 29 then invalid_arg "Rng.int: bound too large";
  let mask = ref 1 in
  while !mask < n - 1 do
    mask := (!mask lsl 1) lor 1
  done;
  let v = ref (Gpusim.Rng.bits30 t land !mask) in
  while !v >= n do
    v := Gpusim.Rng.bits30 t land !mask
  done;
  !v

let test_int_reference () =
  let bounds =
    List.init 1100 (fun i -> i + 1)
    @ List.concat_map
        (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
        (List.init 30 Fun.id)
  in
  let bounds = List.filter (fun n -> n >= 1 && n <= 1 lsl 29) bounds in
  for seed = 0 to 15 do
    let a = Gpusim.Rng.create seed in
    let b = Gpusim.Rng.copy a in
    List.iter
      (fun n ->
        for _ = 1 to 4 do
          let x = Gpusim.Rng.int a n and y = int_reference b n in
          if x <> y then
            Alcotest.failf "seed %d, bound %d: int gave %d, the loop %d" seed
              n x y
        done;
        if Gpusim.Rng.int64 a <> Gpusim.Rng.int64 b then
          Alcotest.failf "seed %d, bound %d: the streams parted" seed n)
      bounds
  done;
  let t = Gpusim.Rng.create 1 in
  List.iter
    (fun (n, msg) ->
      Alcotest.check_raises (Printf.sprintf "int %d" n) (Invalid_argument msg)
        (fun () -> ignore (Gpusim.Rng.int t n)))
    [ (0, "Rng.int: bound must be positive");
      (-3, "Rng.int: bound must be positive");
      (min_int, "Rng.int: bound must be positive");
      ((1 lsl 29) + 1, "Rng.int: bound too large");
      (max_int, "Rng.int: bound too large") ]

let test_chance_extremes () =
  let t = Gpusim.Rng.create 3 in
  for _ = 1 to 20 do
    Alcotest.(check bool) "p=0 never" false (Gpusim.Rng.chance t 0.0);
    Alcotest.(check bool) "p=1 always" true (Gpusim.Rng.chance t 1.0)
  done

(* Known-answer vectors: one fixed script of draws per seed, recorded
   from the reference SplitMix64 implementation (boxed [int64] state).
   Every campaign ledger, check report and benchmark digest is a function
   of this stream, so a change to the state's representation must keep
   it bit for bit.  Comparing draw by draw names the first draw that
   differs instead of surfacing later as a golden-file diff. *)
let kat_script seed =
  let open Gpusim in
  let acc = ref [] in
  let note fmt = Printf.ksprintf (fun s -> acc := s :: !acc) fmt in
  let run tag t =
    for _ = 1 to 2 do note "%s int64 %Lx" tag (Rng.int64 t) done;
    for _ = 1 to 2 do note "%s bits30 %d" tag (Rng.bits30 t) done;
    for _ = 1 to 2 do note "%s float %h" tag (Rng.float t) done;
    let b = Buffer.create 8 in
    for _ = 1 to 8 do
      Buffer.add_char b (if Rng.chance t 0.3 then '1' else '0')
    done;
    note "%s chance 0.3 %s" tag (Buffer.contents b);
    List.iter
      (fun n ->
        let a = Rng.int t n in
        let c = Rng.int t n in
        note "%s int %d %d %d" tag n a c)
      [ 1; 2; 37; 1 lsl 29 ]
  in
  let t = Rng.create seed in
  run "create" t;
  let c = Rng.split t in
  run "split child" c;
  run "split parent" t;
  let d = Rng.copy t in
  run "copy" d;
  Rng.reseed t (seed + 1);
  run "reseed" t;
  List.rev !acc

let kat_expected =
  [ ( 0,
      [ "create int64 e220a8397b1dcdaf";
        "create int64 6e789e6aa1b965f4";
        "create bits30 28383046";
        "create bits30 1042476586";
        "create float 0x1.b39896a51a87p-4";
        "create float 0x1.4f2e7c31d1fa8p-2";
        "create chance 0.3 10100000";
        "create int 1 0 0";
        "create int 2 0 0";
        "create int 37 36 30";
        "create int 536870912 475681979 232738167";
        "split child int64 d0b84890ae440d9c";
        "split child int64 dd82665e7cb1bf10";
        "split child bits30 739385330";
        "split child bits30 776901412";
        "split child float 0x1.6e20c4fd7d954p-3";
        "split child float 0x1.be9b43dc522cp-4";
        "split child chance 0.3 01000100";
        "split child int 1 0 0";
        "split child int 2 1 0";
        "split child int 37 10 29";
        "split child int 536870912 15250247 41964458";
        "split parent int64 5582d37111ac529";
        "split parent int64 d254741f599dc6f7";
        "split parent bits30 442024925";
        "split parent bits30 274710104";
        "split parent float 0x1.e1e20d1da19ap-3";
        "split parent float 0x1.b86641772f94cp-2";
        "split parent chance 0.3 00111001";
        "split parent int 1 0 0";
        "split parent int 2 1 0";
        "split parent int 37 20 24";
        "split parent int 536870912 113662706 201949393";
        "copy int64 cf448a5882bb9698";
        "copy int64 f4a578dccbc87656";
        "copy bits30 804760502";
        "copy bits30 996036619";
        "copy float 0x1.57c1c2ac72efcp-2";
        "copy float 0x1.f0051a494d444p-3";
        "copy chance 0.3 01110100";
        "copy int 1 0 0";
        "copy int 2 1 1";
        "copy int 37 10 32";
        "copy int 536870912 94985466 296386411";
        "reseed int64 bfef8030ddc2d772";
        "reseed int64 5f552ce482f2aa47";
        "reseed bits30 470603760";
        "reseed bits30 1024475022";
        "reseed float 0x1.9dd1794f3e0b4p-3";
        "reseed float 0x1.31087e915296fp-1";
        "reseed chance 0.3 01000001";
        "reseed int 1 0 0";
        "reseed int 2 1 1";
        "reseed int 37 7 25";
        "reseed int 536870912 172599558 62194846" ] );
    ( 7,
      [ "create int64 863b891f4c0abd4f";
        "create int64 4d58fbd282eaf415";
        "create bits30 1010387009";
        "create bits30 948360205";
        "create float 0x1.53ced9ff082a5p-1";
        "create float 0x1.60e097496b38p-2";
        "create chance 0.3 00010100";
        "create int 1 0 0";
        "create int 2 0 0";
        "create int 37 32 29";
        "create int 536870912 319489538 466788931";
        "split child int64 b84a32ea9217a84e";
        "split child int64 490618e2dd21e45e";
        "split child bits30 766192732";
        "split child bits30 721287054";
        "split child float 0x1.c83ef300cb3f4p-2";
        "split child float 0x1.a9636e1f79a45p-1";
        "split child chance 0.3 00000000";
        "split child int 1 0 0";
        "split child int 2 0 0";
        "split child int 37 4 0";
        "split child int 536870912 404416236 74277748";
        "split parent int64 455f480388216ad5";
        "split parent int64 733013caeb329763";
        "split parent bits30 391304133";
        "split parent bits30 519239002";
        "split parent float 0x1.0672f7bea1cd8p-2";
        "split parent float 0x1.89b854471474p-6";
        "split parent chance 0.3 00101100";
        "split parent int 1 0 0";
        "split parent int 2 0 1";
        "split parent int 37 15 8";
        "split parent int 536870912 284114668 75697438";
        "copy int64 982f3d1665bb9ac0";
        "copy int64 8d5e968c8bfc723a";
        "copy bits30 214728078";
        "copy bits30 306282301";
        "copy float 0x1.60166180b1cd8p-4";
        "copy float 0x1.c4f0f711b6e0ep-1";
        "copy chance 0.3 01010000";
        "copy int 1 0 0";
        "copy int 2 0 0";
        "copy int 37 17 29";
        "copy int 536870912 361713961 93073200";
        "reseed int64 ed183490b02bd5fa";
        "reseed int64 eb1b24b7a974960b";
        "reseed bits30 1002066427";
        "reseed bits30 869105441";
        "reseed float 0x1.f850a90b532dap-1";
        "reseed float 0x1.6f8976fd68e1p-5";
        "reseed chance 0.3 00001001";
        "reseed int 1 0 0";
        "reseed int 2 1 0";
        "reseed int 37 9 3";
        "reseed int 536870912 337693119 485250644" ] );
    ( -123456789,
      [ "create int64 38c55d3e66c18ce3";
        "create int64 4adefa4a371b7e95";
        "create bits30 673998130";
        "create bits30 119421074";
        "create float 0x1.28c40e94a6d48p-2";
        "create float 0x1.bf29942723a4fp-1";
        "create chance 0.3 00011000";
        "create int 1 0 0";
        "create int 2 0 0";
        "create int 37 7 30";
        "create int 536870912 309158776 130106155";
        "split child int64 e625124d7a425e28";
        "split child int64 67f62387cf31b6e4";
        "split child bits30 982486753";
        "split child bits30 945355972";
        "split child float 0x1.0b305c2c98dbp-4";
        "split child float 0x1.c315c310a2a5fp-1";
        "split child chance 0.3 00101010";
        "split child int 1 0 0";
        "split child int 2 0 0";
        "split child int 37 1 7";
        "split child int 536870912 535900151 352314536";
        "split parent int64 4a46a6ec5c7e6d7e";
        "split parent int64 3a81e1f911363dc6";
        "split parent bits30 388954320";
        "split parent bits30 1021158308";
        "split parent float 0x1.e879db2c1fce4p-2";
        "split parent float 0x1.eae57acb98806p-1";
        "split parent chance 0.3 10010100";
        "split parent int 1 0 0";
        "split parent int 2 1 1";
        "split parent int 37 31 8";
        "split parent int 536870912 332477164 393163581";
        "copy int64 1d04d46f24856dcc";
        "copy int64 3b78c682cbda0cf0";
        "copy bits30 684650816";
        "copy bits30 236627772";
        "copy float 0x1.129316a2c6ba1p-1";
        "copy float 0x1.906b133e9e031p-1";
        "copy chance 0.3 01100001";
        "copy int 1 0 0";
        "copy int 2 1 0";
        "copy int 37 16 5";
        "copy int 536870912 274146854 223398112";
        "reseed int64 196d0b28392039c4";
        "reseed int64 e9d7b303b3831c41";
        "reseed bits30 1003405306";
        "reseed bits30 736593415";
        "reseed float 0x1.a1cbd4cbc8318p-3";
        "reseed float 0x1.15a7944c825cdp-1";
        "reseed chance 0.3 11000000";
        "reseed int 1 0 0";
        "reseed int 2 1 1";
        "reseed int 37 13 3";
        "reseed int 536870912 343978383 126878778" ] ) ]

let test_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let actual = kat_script seed in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: draw count" seed)
        (List.length expected) (List.length actual);
      List.iteri
        (fun i (e, a) ->
          Alcotest.(check string) (Printf.sprintf "seed %d draw %d" seed i) e a)
        (List.combine expected actual))
    kat_expected

(* The simulator draws several times per scheduler tick, so a draw must
   not allocate.  The one exception is [float]'s result: a [float]
   returned from a function that the caller does not inline is boxed (2
   words), and the dev profile's [-opaque] rules out inlining across
   modules.  The state itself must still cost nothing there. *)
let draws = 10_000

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_draws_allocate_nothing () =
  let t = Gpusim.Rng.create 11 in
  let sink = ref 0 in
  let check name f =
    Alcotest.(check (float 0.0))
      (Printf.sprintf "minor words for %d calls of %s" draws name)
      0.0 (minor_words_of f)
  in
  check "chance" (fun () ->
      for _ = 1 to draws do
        if Gpusim.Rng.chance t 0.3 then incr sink
      done);
  let thr = Gpusim.Rng.threshold 0.3 in
  check "below" (fun () ->
      for _ = 1 to draws do
        if Gpusim.Rng.below t thr then incr sink
      done);
  check "bits30" (fun () ->
      for _ = 1 to draws do
        sink := !sink lxor Gpusim.Rng.bits30 t
      done);
  check "int 37" (fun () ->
      for _ = 1 to draws do
        sink := !sink + Gpusim.Rng.int t 37
      done);
  check "int 2^29" (fun () ->
      for _ = 1 to draws do
        sink := !sink lxor Gpusim.Rng.int t (1 lsl 29)
      done);
  check "int_in" (fun () ->
      for _ = 1 to draws do
        sink := !sink + Gpusim.Rng.int_in t (-5) 5
      done);
  check "bool" (fun () ->
      for _ = 1 to draws do
        if Gpusim.Rng.bool t then incr sink
      done);
  let w =
    minor_words_of (fun () ->
        for _ = 1 to draws do
          if Gpusim.Rng.float t < 0.5 then incr sink
        done)
  in
  if w > float_of_int (2 * draws) then
    Alcotest.failf "%d calls of float allocated %.0f minor words, more than \
                    their boxed results (%d)" draws w (2 * draws);
  ignore (Sys.opaque_identity !sink)

let () =
  Alcotest.run "rng"
    [ ( "unit",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "uniformity" `Quick test_uniformity;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
          Alcotest.test_case "threshold is the exact boundary" `Quick
            test_threshold_boundary;
          Alcotest.test_case "threshold refuses" `Quick test_threshold_refuses;
          Alcotest.test_case "int = the mask loop" `Quick
            test_int_reference ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_bounds; prop_int_in_bounds; prop_float_unit;
            prop_shuffle_permutation; prop_sample_distinct;
            prop_skip_is_one_draw; prop_below_is_chance ] ) ]
