(* Suite for Bist_fault.Dictionary (pass/fail diagnosis). *)

module Tseq = Bist_logic.Tseq
module Universe = Bist_fault.Universe
module Dictionary = Bist_fault.Dictionary

let s27 = Bist_bench.S27.circuit ()
let s27_universe = Universe.collapsed s27

(* The scheme's own expanded sequences, the realistic dictionary input. *)
let expanded_set =
  lazy
    (let run =
       Bist_core.Scheme.execute ~seed:7 ~n:2 ~t0:(Bist_bench.S27.t0 ())
         s27_universe
     in
     List.map (Bist_core.Ops.expand ~n:2) run.Bist_core.Scheme.sequences)

let test_dictionary_syndromes_match_fsim () =
  let seqs = Lazy.force expanded_set in
  let dict = Dictionary.build s27_universe seqs in
  Alcotest.(check int) "num sequences" (List.length seqs)
    (Dictionary.num_sequences dict);
  (* spot-check each fault's syndrome against direct simulation *)
  Universe.iter
    (fun id fault ->
      let expected =
        List.map (fun seq -> Bist_fault.Fsim.detects s27 fault seq) seqs
      in
      Alcotest.(check (list bool))
        (Bist_fault.Fault.name s27 fault)
        expected (Dictionary.syndrome dict id))
    s27_universe

let test_dictionary_candidates () =
  let seqs = Lazy.force expanded_set in
  let dict = Dictionary.build s27_universe seqs in
  (* every detected fault must be a candidate for its own syndrome *)
  Universe.iter
    (fun id _ ->
      let syn = Dictionary.syndrome dict id in
      if List.exists Fun.id syn then
        Alcotest.(check bool) "self-consistent" true
          (List.mem id (Dictionary.candidates dict ~observed:syn)))
    s27_universe;
  (* the all-pass syndrome should return only undetected faults *)
  let all_pass = List.map (fun _ -> false) seqs in
  List.iter
    (fun id ->
      Alcotest.(check bool) "all-pass candidates are undetected" false
        (List.exists Fun.id (Dictionary.syndrome dict id)))
    (Dictionary.candidates dict ~observed:all_pass)

let test_dictionary_classes () =
  let dict = Dictionary.build s27_universe (Lazy.force expanded_set) in
  let classes = Dictionary.distinguishable_classes dict in
  let total = List.fold_left (fun acc c -> acc + List.length c) 0 classes in
  (* s27's scheme set detects all 32 faults *)
  Alcotest.(check int) "classes cover all detected faults" 32 total;
  let r = Dictionary.resolution dict in
  Alcotest.(check bool) "resolution in (0,1]" true (r > 0.0 && r <= 1.0);
  (* more sequences cannot reduce resolution: compare 1-seq vs full set *)
  let dict1 = Dictionary.build s27_universe [ List.hd (Lazy.force expanded_set) ] in
  Alcotest.(check bool) "finer with more sequences" true
    (List.length classes >= List.length (Dictionary.distinguishable_classes dict1))

let test_dictionary_errors () =
  let dict = Dictionary.build s27_universe (Lazy.force expanded_set) in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Dictionary.candidates: syndrome length mismatch")
    (fun () -> ignore (Dictionary.candidates dict ~observed:[ true ]))

let suite =
  [
    Alcotest.test_case "dictionary syndromes" `Slow test_dictionary_syndromes_match_fsim;
    Alcotest.test_case "dictionary candidates" `Quick test_dictionary_candidates;
    Alcotest.test_case "dictionary classes" `Quick test_dictionary_classes;
    Alcotest.test_case "dictionary errors" `Quick test_dictionary_errors;
  ]
