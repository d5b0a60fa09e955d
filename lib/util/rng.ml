(* The xoshiro256** state, four 64-bit words in 32 bytes, read and
   written with the unboxed int64 accessors: a draw allocates nothing,
   where mutable int64 record fields would box every word it writes. *)
type t = Bytes.t

let get t i = Bytes.get_int64_ne t (8 * i)
let set t i v = Bytes.set_int64_ne t (8 * i) v

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 s3;
  t

(* splitmix64: expands a small seed into well-distributed initial state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  of_words s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create seed

let export t = Array.init 4 (get t)

let import words =
  if Array.length words <> 4 then
    invalid_arg "Rng.import: expected exactly 4 state words";
  if Array.for_all (fun w -> w = 0L) words then
    invalid_arg "Rng.import: the all-zero state is not a valid xoshiro state";
  of_words words.(0) words.(1) words.(2) words.(3)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits avoids modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let v = Int64.to_int (bits64 t) land mask in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then draw () else r
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0 (* 2^53 *)

let bernoulli t p = float t < p

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t len =
  let arr = Array.init len (fun i -> i) in
  shuffle_in_place t arr;
  arr

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
