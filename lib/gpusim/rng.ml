(* SplitMix64 (Steele, Lea, Flood; JDK 8).  Small state, good statistical
   quality, and cheap splitting -- ideal for seeding millions of short
   simulated executions reproducibly.

   The 64-bit state lives unboxed in an 8-byte buffer, read and written
   with the unaligned 64-bit bytes primitives.  Without flambda an [int64]
   stored in a mutable record field, or returned from a function that is
   not inlined, is boxed: a [{ mutable state : int64 }] record costs 8
   minor words per [chance].  Every draw below keeps its arithmetic in
   one inlined chain from load to store, so only [int64] and [float]
   allocate, and only the box of their result. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

(* In-place [create]: restart an existing generator on a fresh seed
   without allocating a new state buffer. *)
let reseed t seed = set_state t 0 (mix (Int64.of_int seed))

let copy t = Bytes.copy t

let[@inline] int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let[@inline] skip t = set_state t 0 (Int64.add (get_state t 0) golden_gamma)

let split t = of_state (mix (int64 t))

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let subseed seed i =
  if i < 0 then invalid_arg "Rng.subseed: negative index";
  (* Jump directly to the i-th state of [create seed]'s stream; the result
     equals the (i+1)-th [bits30] draw without materialising a generator,
     so per-job seeds can be derived in any order (or concurrently). *)
  let state =
    Int64.add (mix (Int64.of_int seed))
      (Int64.mul (Int64.of_int (i + 1)) golden_gamma)
  in
  Int64.to_int (Int64.shift_right_logical (mix state) 34)

(* The rejection path of [int], out of line so that the accept path
   inlines: with the mask below, a try is rejected at most half the
   time. *)
let rec redraw t n mask =
  let v = bits30 t land mask in
  if v < n then v else redraw t n mask

(* Rejection sampling over 30 bits avoids modulo bias for the small
   bounds used throughout the simulator.  The mask is the smallest
   [2^k - 1] that covers [n - 1], and at least 1: the bit smear of
   [n - 1] (five shifts cover its 29 bits at most), ORed with 1. *)
let[@inline] int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n > 1 lsl 29 then invalid_arg "Rng.int: bound too large";
  let m = n - 1 in
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let mask = m lor (m lsr 16) lor 1 in
  let v = bits30 t land mask in
  if v < n then v else redraw t n mask

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t =
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits *. 0x1.0p-53

let bool t = Int64.compare (int64 t) 0L < 0

(* Inlined, so that a probability computed by the caller reaches the
   compare unboxed. *)
let[@inline] chance t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

(* [float t < p] compares [bits * 2^-53] with [p], where [bits] is the
   draw's top 53 bits.  Both [p * 2^53] and its ceiling are exact in
   binary floating point, and for an integer [bits], [bits < x] iff
   [bits < ceil x]: so [below t (threshold p)] decides as [chance t p]
   does, on the same single draw, without the conversion to float. *)
let threshold p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Rng.threshold: probability must be in (0, 1)";
  int_of_float (Float.ceil (Float.ldexp p 53))

let[@inline] below t thr =
  Int64.to_int (Int64.shift_right_logical (int64 t) 11) < thr

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t m n =
  if m < 0 || m > n then invalid_arg "Rng.sample_distinct";
  (* Partial Fisher-Yates over [0, n): O(n) space but n is small in all of
     our uses (scratchpad regions, thread ids). *)
  let a = Array.init n (fun i -> i) in
  let picked = ref [] in
  for i = 0 to m - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    picked := a.(i) :: !picked
  done;
  !picked
