(* Suites for Bist_logic: Ternary, Packed, Vector, Tseq. *)

module T = Bist_logic.Ternary
module P = Packed
module Vector = Bist_logic.Vector
module Tseq = Bist_logic.Tseq

let all3 = [ T.Zero; T.One; T.X ]

let test_ternary_truth_tables () =
  let module A = Alcotest in
  let chk = A.check Testutil.ternary_testable in
  chk "and 1 1" T.One (T.and_ T.One T.One);
  chk "and 0 X" T.Zero (T.and_ T.Zero T.X);
  chk "and X 1" T.X (T.and_ T.X T.One);
  chk "or 1 X" T.One (T.or_ T.One T.X);
  chk "or 0 X" T.X (T.or_ T.Zero T.X);
  chk "xor X 1" T.X (T.xor T.X T.One);
  chk "xor 1 0" T.One (T.xor T.One T.Zero);
  chk "not X" T.X (T.not_ T.X);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          chk "nand = not and" (T.not_ (T.and_ a b)) (T.nand a b);
          chk "nor = not or" (T.not_ (T.or_ a b)) (T.nor a b);
          chk "xnor = not xor" (T.not_ (T.xor a b)) (T.xnor a b);
          chk "and commutes" (T.and_ a b) (T.and_ b a);
          chk "or commutes" (T.or_ a b) (T.or_ b a))
        all3)
    all3

(* Information order: X below both binaries. Every connective must be
   monotone — refining an X input never flips a binary output. This is
   the property the whole detection theory rests on. *)
let refines a b = T.equal a b || T.equal b T.X

let test_ternary_monotone () =
  let ops = [ ("and", T.and_); ("or", T.or_); ("xor", T.xor); ("nand", T.nand) ] in
  List.iter
    (fun (name, op) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              (* refine X inputs in all ways *)
              let refinements v = if T.equal v T.X then all3 else [ v ] in
              List.iter
                (fun a' ->
                  List.iter
                    (fun b' ->
                      if refines a' a && refines b' b then
                        Alcotest.(check bool)
                          (Printf.sprintf "%s monotone" name) true
                          (refines (op a' b') (op a b)))
                    (refinements b))
                (refinements a))
            all3)
        all3)
    ops

let test_ternary_conflicts () =
  Alcotest.(check bool) "0 vs 1" true (T.conflicts T.Zero T.One);
  Alcotest.(check bool) "1 vs 0" true (T.conflicts T.One T.Zero);
  Alcotest.(check bool) "1 vs 1" false (T.conflicts T.One T.One);
  Alcotest.(check bool) "X vs 1" false (T.conflicts T.X T.One);
  Alcotest.(check bool) "1 vs X" false (T.conflicts T.One T.X)

let test_ternary_chars () =
  List.iter
    (fun t -> Alcotest.check Testutil.ternary_testable "roundtrip" t (T.of_char (T.to_char t)))
    all3;
  Alcotest.check_raises "bad char" (Invalid_argument "Ternary.of_char: '2'")
    (fun () -> ignore (T.of_char '2'))

(* Packed words must agree lane-wise with the scalar connectives. *)
let test_packed_matches_scalar =
  let gen = QCheck.Gen.(pair (list_size (return P.lanes) Testutil.ternary_gen)
                          (list_size (return P.lanes) Testutil.ternary_gen)) in
  let arb = QCheck.make gen in
  Testutil.qcheck
    (QCheck.Test.make ~name:"Packed ops match Ternary lane-wise" ~count:200 arb
       (fun (la, lb) ->
         let pack l = List.fold_left (fun (w, i) v -> (P.set w i v, i + 1)) (P.all_x, 0) l |> fst in
         let wa = pack la and wb = pack lb in
         let ops =
           [ (P.and_, T.and_); (P.or_, T.or_); (P.xor, T.xor);
             (P.nand, T.nand); (P.nor, T.nor); (P.xnor, T.xnor) ]
         in
         List.for_all
           (fun (pop, top) ->
             let w = pop wa wb in
             List.for_all2
               (fun i (a, b) -> T.equal (P.get w i) (top a b))
               (List.init P.lanes Fun.id)
               (List.combine la lb))
           ops
         && List.for_all
              (fun i -> T.equal (P.get (P.not_ wa) i) (T.not_ (P.get wa i)))
              (List.init P.lanes Fun.id)))

let test_packed_set_get () =
  let w = P.all T.X in
  let w = P.set w 5 T.One in
  let w = P.set w 17 T.Zero in
  Alcotest.check Testutil.ternary_testable "lane 5" T.One (P.get w 5);
  Alcotest.check Testutil.ternary_testable "lane 17" T.Zero (P.get w 17);
  Alcotest.check Testutil.ternary_testable "lane 0 untouched" T.X (P.get w 0);
  let w = P.set w 5 T.X in
  Alcotest.check Testutil.ternary_testable "cleared" T.X (P.get w 5)

let test_packed_force_and_diff () =
  let good = P.all T.One in
  let faulty = P.force good ~mask:0b100 T.Zero in
  Alcotest.(check int) "diff lane 2" 0b100 (P.diff_mask good faulty);
  let faulty_x = P.force good ~mask:0b1000 T.X in
  Alcotest.(check int) "X never diffs" 0 (P.diff_mask good faulty_x);
  Alcotest.(check int) "binary mask drops X lane" (-1 land lnot 0b1000)
    (P.binary_mask faulty_x)

let test_packed_invariant () =
  Alcotest.check_raises "overlapping planes"
    (Invalid_argument "Packed.make: ones and zeros overlap") (fun () ->
      ignore (P.make ~ones:1 ~zeros:1))

(* Vector *)

let test_vector_roundtrip =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Vector of_string/to_string roundtrip" ~count:200
       QCheck.(string_gen_of_size (Gen.int_range 0 20) (Gen.oneofl [ '0'; '1'; 'x' ]))
       (fun s -> Vector.to_string (Vector.of_string s) = s))

let test_vector_shift () =
  Testutil.check_vec "paper example 001 -> 010" (Vector.of_string "010")
    (Vector.shift_left_circular (Vector.of_string "001"));
  Testutil.check_vec "paper example 101 -> 011" (Vector.of_string "011")
    (Vector.shift_left_circular (Vector.of_string "101"));
  Testutil.check_vec "width 1 fixed point" (Vector.of_string "1")
    (Vector.shift_left_circular (Vector.of_string "1"))

let test_vector_shift_order () =
  (* width applications of the circular shift = identity *)
  let v = Vector.of_string "1x010" in
  let rec apply n w = if n = 0 then w else apply (n - 1) (Vector.shift_left_circular w) in
  Testutil.check_vec "period divides width" v (apply 5 v)

let test_vector_complement_involutive =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Vector complement involutive" ~count:200
       (QCheck.make (Testutil.vector_gen ~width:8))
       (fun v -> Vector.equal v (Vector.complement (Vector.complement v))))

(* Tseq *)

let test_tseq_sub_omit () =
  let s = Tseq.of_strings [ "00"; "01"; "10"; "11" ] in
  Testutil.check_seq "sub [1,2]" (Tseq.of_strings [ "01"; "10" ]) (Tseq.sub s ~lo:1 ~hi:2);
  Testutil.check_seq "omit 2" (Tseq.of_strings [ "00"; "01"; "11" ]) (Tseq.omit s 2);
  Alcotest.check_raises "bad range" (Invalid_argument "Tseq.sub: bad range")
    (fun () -> ignore (Tseq.sub s ~lo:2 ~hi:1))

let test_tseq_repeat_reverse () =
  let s = Tseq.of_strings [ "01"; "10" ] in
  Testutil.check_seq "repeat 3"
    (Tseq.of_strings [ "01"; "10"; "01"; "10"; "01"; "10" ])
    (Tseq.repeat s 3);
  Testutil.check_seq "reverse" (Tseq.of_strings [ "10"; "01" ]) (Tseq.reverse s)

let test_tseq_laws =
  let arb = Testutil.seq ~width:5 ~max_len:12 in
  [
    Testutil.qcheck
      (QCheck.Test.make ~name:"reverse involutive" ~count:200 arb (fun s ->
           Tseq.equal s (Tseq.reverse (Tseq.reverse s))));
    Testutil.qcheck
      (QCheck.Test.make ~name:"complement involutive" ~count:200 arb (fun s ->
           Tseq.equal s (Tseq.complement (Tseq.complement s))));
    Testutil.qcheck
      (QCheck.Test.make ~name:"repeat length" ~count:200
         QCheck.(pair arb (int_range 1 5))
         (fun (s, n) -> Tseq.length (Tseq.repeat s n) = n * Tseq.length s));
    Testutil.qcheck
      (QCheck.Test.make ~name:"concat length" ~count:200 QCheck.(pair arb arb)
         (fun (a, b) -> Tseq.length (Tseq.concat a b) = Tseq.length a + Tseq.length b));
    Testutil.qcheck
      (QCheck.Test.make ~name:"reverse distributes over concat" ~count:200
         QCheck.(pair arb arb)
         (fun (a, b) ->
           Tseq.equal
             (Tseq.reverse (Tseq.concat a b))
             (Tseq.concat (Tseq.reverse b) (Tseq.reverse a))));
  ]

let test_tseq_width_mismatch () =
  let a = Tseq.of_strings [ "01" ] and b = Tseq.of_strings [ "011" ] in
  Alcotest.check_raises "concat width" (Invalid_argument "Tseq.concat: width mismatch")
    (fun () -> ignore (Tseq.concat a b))

let suite =
  [
    Alcotest.test_case "ternary truth tables" `Quick test_ternary_truth_tables;
    Alcotest.test_case "ternary monotone" `Quick test_ternary_monotone;
    Alcotest.test_case "ternary conflicts" `Quick test_ternary_conflicts;
    Alcotest.test_case "ternary chars" `Quick test_ternary_chars;
    test_packed_matches_scalar;
    Alcotest.test_case "packed set/get" `Quick test_packed_set_get;
    Alcotest.test_case "packed force/diff" `Quick test_packed_force_and_diff;
    Alcotest.test_case "packed invariant" `Quick test_packed_invariant;
    test_vector_roundtrip;
    Alcotest.test_case "vector shift" `Quick test_vector_shift;
    Alcotest.test_case "vector shift period" `Quick test_vector_shift_order;
    test_vector_complement_involutive;
    Alcotest.test_case "tseq sub/omit" `Quick test_tseq_sub_omit;
    Alcotest.test_case "tseq repeat/reverse" `Quick test_tseq_repeat_reverse;
  ]
  @ test_tseq_laws
  @ [ Alcotest.test_case "tseq width mismatch" `Quick test_tseq_width_mismatch ]
