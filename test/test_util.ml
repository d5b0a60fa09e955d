(* Suites for Bist_util: Rng, Bitset, Ascii_table. *)

module Rng = Bist_util.Rng
module Bitset = Bist_util.Bitset

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* xoshiro256** seeded through splitmix64, written plainly on int64
   refs: the stream [Rng] must produce, whatever it keeps its state in. *)
let reference_stream seed =
  let open Int64 in
  let state = ref (of_int seed) in
  let splitmix () =
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let s0 = ref (splitmix ()) in
  let s1 = ref (splitmix ()) in
  let s2 = ref (splitmix ()) in
  let s3 = ref (splitmix ()) in
  let rotl x k = logor (shift_left x k) (shift_right_logical x (64 - k)) in
  fun () ->
    let result = mul (rotl (mul !s1 5L) 7) 9L in
    let tmp = shift_left !s1 17 in
    s2 := logxor !s2 !s0;
    s3 := logxor !s3 !s1;
    s1 := logxor !s1 !s2;
    s0 := logxor !s0 !s3;
    s2 := logxor !s2 tmp;
    s3 := rotl !s3 45;
    result

let test_rng_reference =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Rng stream == reference xoshiro256**" ~count:100
       QCheck.(int_range 0 max_int)
       (fun seed ->
         let reference = reference_stream seed in
         let rng = ref (Rng.create seed) in
         List.for_all
           (fun i ->
             (* A copy and an export/import round trip continue the stream. *)
             if i mod 97 = 0 then rng := Rng.copy !rng;
             if i mod 89 = 0 then rng := Rng.import (Rng.export !rng);
             Int64.equal (reference ()) (Rng.bits64 !rng))
           (List.init 1000 Fun.id)))

let test_rng_differs_by_seed () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "split stream is distinct" true (!matches < 4)

let test_rng_int_bounds =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
       QCheck.(pair small_int (int_range 1 1000))
       (fun (seed, bound) ->
         let rng = Rng.create seed in
         let v = Rng.int rng bound in
         v >= 0 && v < bound))

let test_rng_permutation () =
  let rng = Rng.create 3 in
  let p = Rng.permutation rng 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_invalid () =
  let rng = Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "choose empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

(* Bitset *)

module IntSet = Set.Make (Int)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check int) "after remove" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements sorted" [ 0; 64; 99 ] (Bitset.elements s)

let test_bitset_fill () =
  List.iter
    (fun cap ->
      let s = Bitset.create cap in
      Bitset.fill s;
      Alcotest.(check int) (Printf.sprintf "fill %d" cap) cap (Bitset.cardinal s))
    [ 0; 1; 7; 8; 9; 63; 64; 65; 100 ]

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 10)

let bitset_of_list cap l =
  let s = Bitset.create cap in
  List.iter (Bitset.add s) l;
  s

let test_bitset_ops_vs_reference =
  let gen =
    QCheck.(pair (list (int_range 0 199)) (list (int_range 0 199)))
  in
  Testutil.qcheck
    (QCheck.Test.make ~name:"Bitset ops agree with Set" ~count:300 gen
       (fun (la, lb) ->
         let sa = IntSet.of_list la and sb = IntSet.of_list lb in
         let check op ref_op =
           let a = bitset_of_list 200 la in
           let b = bitset_of_list 200 lb in
           op a b;
           IntSet.elements (ref_op sa sb) = Bitset.elements a
         in
         check Bitset.union_into IntSet.union
         && check Bitset.diff_into IntSet.diff
         && check Bitset.inter_into IntSet.inter
         && Bitset.subset (bitset_of_list 200 la) (bitset_of_list 200 lb)
            = IntSet.subset sa sb))

let test_bitset_copy_independent () =
  let a = bitset_of_list 50 [ 1; 2; 3 ] in
  let b = Bitset.copy a in
  Bitset.add b 10;
  Alcotest.(check bool) "copy does not alias" false (Bitset.mem a 10)

(* Ascii_table *)

let test_table_render () =
  let t =
    Bist_util.Ascii_table.create
      ~headers:[ ("name", Bist_util.Ascii_table.Left); ("v", Bist_util.Ascii_table.Right) ]
  in
  Bist_util.Ascii_table.add_row t [ "a"; "1" ];
  Bist_util.Ascii_table.add_row t [ "bcd"; "22" ];
  let out = Bist_util.Ascii_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  Alcotest.(check bool) "right-aligns" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "a      1") lines)

let test_table_arity () =
  let t =
    Bist_util.Ascii_table.create ~headers:[ ("a", Bist_util.Ascii_table.Left) ]
  in
  Alcotest.check_raises "arity" (Invalid_argument "Ascii_table.add_row: arity mismatch")
    (fun () -> Bist_util.Ascii_table.add_row t [ "x"; "y" ])

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    test_rng_reference;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_differs_by_seed;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    test_rng_int_bounds;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng invalid args" `Quick test_rng_invalid;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset fill" `Quick test_bitset_fill;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    test_bitset_ops_vs_reference;
    Alcotest.test_case "bitset copy" `Quick test_bitset_copy_independent;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
  ]
