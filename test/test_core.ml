(* Suites for Bist_core: the expansion operators (Table 1), Procedure 2
   (the Section 3.1 walkthrough), Procedure 1, static compaction of S,
   and the end-to-end scheme. *)

module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Ops = Bist_core.Ops
module Procedure1 = Bist_core.Procedure1
module Procedure2 = Bist_core.Procedure2
module Postprocess = Bist_core.Postprocess
module Scheme = Bist_core.Scheme
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim

let s27 = Bist_bench.S27.circuit ()
let s27_universe = Universe.collapsed s27
let s27_t0 = Bist_bench.S27.t0 ()

(* Table 1 of the paper, verbatim. *)
let test_table1 () =
  let s = Tseq.of_strings [ "000"; "110" ] in
  let expected_s'' =
    [ "000"; "110"; "000"; "110"; "111"; "001"; "111"; "001" ]
  in
  let expected_s''' =
    expected_s'' @ [ "000"; "101"; "000"; "101"; "111"; "010"; "111"; "010" ]
  in
  let expected_sexp =
    expected_s'''
    @ [ "010"; "111"; "010"; "111"; "101"; "000"; "101"; "000";
        "001"; "111"; "001"; "111"; "110"; "000"; "110"; "000" ]
  in
  Testutil.check_seq "S''exp" (Tseq.of_strings expected_s'')
    (Ops.expand_with ~operators:[ Ops.Repeat; Ops.Complement ] ~n:2 s);
  Testutil.check_seq "S'''exp" (Tseq.of_strings expected_s''')
    (Ops.expand_with ~operators:[ Ops.Repeat; Ops.Complement; Ops.Shift ] ~n:2 s);
  Testutil.check_seq "Sexp" (Tseq.of_strings expected_sexp) (Ops.expand ~n:2 s)

let test_expand_length =
  Testutil.qcheck
    (QCheck.Test.make ~name:"expansion length is 8nL" ~count:100
       QCheck.(pair (Testutil.seq ~width:4 ~max_len:10) (int_range 1 6))
       (fun (s, n) ->
         Tseq.length (Ops.expand ~n s) = Ops.expanded_length ~n (Tseq.length s)))

let test_expand_prefix =
  Testutil.qcheck
    (QCheck.Test.make ~name:"S is a prefix of Sexp (all operator subsets)"
       ~count:100
       QCheck.(
         triple (Testutil.seq ~width:4 ~max_len:8) (int_range 1 4)
           (oneofl
              [ Ops.all_operators; [ Ops.Repeat ]; [ Ops.Complement ];
                [ Ops.Shift ]; [ Ops.Reverse ]; [ Ops.Repeat; Ops.Reverse ];
                [ Ops.Complement; Ops.Shift ] ]))
       (fun (s, n, operators) ->
         let exp = Ops.expand_with ~operators ~n s in
         Tseq.length exp >= Tseq.length s
         && Tseq.equal (Tseq.sub exp ~lo:0 ~hi:(Tseq.length s - 1)) s))

let test_expansion_factor =
  Testutil.qcheck
    (QCheck.Test.make ~name:"expansion_factor matches actual length" ~count:100
       QCheck.(
         triple (Testutil.seq ~width:3 ~max_len:6) (int_range 1 5)
           (oneofl
              [ Ops.all_operators; [ Ops.Repeat ]; [ Ops.Shift; Ops.Reverse ];
                [ Ops.Complement ] ]))
       (fun (s, n, operators) ->
         Tseq.length (Ops.expand_with ~operators ~n s)
         = Ops.expansion_factor ~operators ~n * Tseq.length s))

let test_expand_bad_n () =
  Alcotest.check_raises "n=0" (Invalid_argument "Ops.expand_with: n must be >= 1")
    (fun () -> ignore (Ops.expand ~n:0 (Tseq.of_strings [ "0" ])))

(* Section 3.1: the fault detected at u=9 gives window T0[6,9]. *)
let test_procedure2_walkthrough () =
  let table = Bist_fault.Fault_table.compute s27_universe s27_t0 in
  let at9 = Bist_fault.Fault_table.detected_at table 9 in
  Alcotest.(check int) "two faults at u=9" 2 (List.length at9);
  List.iter
    (fun id ->
      let fault = Universe.get s27_universe id in
      let rng = Bist_util.Rng.create 42 in
      let o = Procedure2.find ~rng ~n:1 ~t0:s27_t0 ~udet:9 s27 fault in
      Alcotest.(check int)
        (Printf.sprintf "ustart for %s" (Bist_fault.Fault.name s27 fault))
        6 o.Procedure2.ustart;
      Alcotest.(check bool) "omission shrank or kept" true
        (Tseq.length o.subsequence <= o.window_length))
    at9

(* Invariant: the returned subsequence's expansion detects the fault,
   for every detected fault of s27, both strategies. *)
let test_procedure2_detects_target () =
  let table = Bist_fault.Fault_table.compute s27_universe s27_t0 in
  List.iter
    (fun (strategy, label) ->
      Universe.iter
        (fun id fault ->
          match Bist_fault.Fault_table.udet table id with
          | None -> ()
          | Some udet ->
            let rng = Bist_util.Rng.create (17 + id) in
            let o =
              Procedure2.find ~strategy ~rng ~n:2 ~t0:s27_t0 ~udet s27 fault
            in
            let exp = Ops.expand ~n:2 o.Procedure2.subsequence in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s expansion detects" label
                 (Bist_fault.Fault.name s27 fault))
              true
              (Fsim.detects s27 fault exp))
        s27_universe)
    [ (Procedure2.paper_strategy, "paper"); (Procedure2.fast_strategy, "fast") ]

let test_procedure2_bad_udet () =
  let fault = Universe.get s27_universe 0 in
  let rng = Bist_util.Rng.create 1 in
  Alcotest.check_raises "udet range"
    (Invalid_argument "Procedure2.find: udet out of range") (fun () ->
      ignore (Procedure2.find ~rng ~n:1 ~t0:s27_t0 ~udet:99 s27 fault))

(* Procedure 1 must cover exactly F = faults detected by T0. *)
let check_covers universe ~n sequences targets =
  let remaining = Bitset.copy targets in
  List.iter
    (fun s ->
      let exp = Ops.expand ~n s in
      let o = Fsim.run ~targets:remaining universe exp in
      Bitset.diff_into remaining o.Fsim.detected)
    sequences;
  Bitset.is_empty remaining

let test_procedure1_covers () =
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  Alcotest.(check bool) "expansions cover F" true
    (check_covers s27_universe ~n:2
       (Procedure1.sequences result)
       result.Procedure1.t0_detected);
  (* each selected sequence detected at least its seeding fault *)
  List.iter
    (fun (sel : Procedure1.selected) ->
      Alcotest.(check bool) "target newly covered" true
        (Bitset.mem sel.newly_detected sel.target_fault))
    result.selected

let test_procedure1_fault_orders () =
  List.iter
    (fun order ->
      let rng = Bist_util.Rng.create 7 in
      let result = Procedure1.run ~fault_order:order ~rng ~n:2 ~t0:s27_t0 s27_universe in
      Alcotest.(check bool) "covers F" true
        (check_covers s27_universe ~n:2
           (Procedure1.sequences result)
           result.Procedure1.t0_detected))
    [ `Max_udet; `Min_udet; `Random ]

let test_procedure1_teaching_circuits () =
  List.iter
    (fun circuit ->
      let universe = Universe.collapsed circuit in
      let rng = Bist_util.Rng.create 3 in
      let t0 =
        Tseq.random_binary rng
          ~width:(Bist_circuit.Netlist.num_inputs circuit)
          ~length:30
      in
      let rng = Bist_util.Rng.create 5 in
      let result = Procedure1.run ~rng ~n:2 ~t0 universe in
      Alcotest.(check bool)
        (Bist_circuit.Netlist.circuit_name circuit ^ " covered")
        true
        (check_covers universe ~n:2
           (Procedure1.sequences result)
           result.Procedure1.t0_detected))
    [ Bist_bench.Teaching.counter3 (); Bist_bench.Teaching.shift4 ();
      Bist_bench.Teaching.parity_fsm () ]

(* A fault table passed in is the one Procedure 1 would compute: the
   result is the same, and a table of another sequence is refused. *)
let test_procedure1_given_table () =
  let same name universe t0 =
    let run ?table () =
      Procedure1.run ?table ~rng:(Bist_util.Rng.create 7) ~n:4 ~t0 universe
    in
    let table = Bist_fault.Fault_table.compute universe t0 in
    Alcotest.(check bool) (name ^ ": same result") true (run ~table () = run ())
  in
  same "s27" s27_universe s27_t0;
  let x298 = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  let t0 =
    Tseq.random_binary (Bist_util.Rng.create 3)
      ~width:(Bist_circuit.Netlist.num_inputs x298) ~length:80
  in
  same "x298" (Universe.collapsed x298) t0;
  let other = Bist_fault.Fault_table.compute s27_universe (Tseq.sub s27_t0 ~lo:0 ~hi:4) in
  Alcotest.check_raises "table of another T0"
    (Invalid_argument "Procedure1.run: table was computed for another universe or T0")
    (fun () ->
      ignore
        (Procedure1.run ~table:other ~rng:(Bist_util.Rng.create 7) ~n:2 ~t0:s27_t0
           s27_universe))

(* Postprocess: never loses coverage, never grows the set. *)
let test_postprocess_preserves_coverage () =
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences result in
  let targets = result.Procedure1.t0_detected in
  let post = Postprocess.run ~n:2 ~targets s27_universe seqs in
  Alcotest.(check bool) "still covers" true
    (check_covers s27_universe ~n:2 post.Postprocess.kept targets);
  Alcotest.(check bool) "did not grow" true
    (List.length post.kept <= List.length seqs);
  Alcotest.(check int) "dropped accounting"
    (List.length seqs - List.length post.kept)
    post.dropped

let test_postprocess_single_passes () =
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences result in
  let targets = result.Procedure1.t0_detected in
  List.iter
    (fun pass ->
      let post = Postprocess.run ~passes:[ pass ] ~n:2 ~targets s27_universe seqs in
      Alcotest.(check bool) "single pass preserves coverage" true
        (check_covers s27_universe ~n:2 post.Postprocess.kept targets))
    Postprocess.
      [ Increasing_length; Decreasing_length; Reverse_generation;
        Decreasing_prev_detections ]

let test_postprocess_drops_redundant () =
  (* A duplicated sequence list must lose the duplicates. *)
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences result in
  let doubled = seqs @ seqs in
  let targets = result.Procedure1.t0_detected in
  let post = Postprocess.run ~n:2 ~targets s27_universe doubled in
  Alcotest.(check bool) "duplicates dropped" true
    (List.length post.Postprocess.kept <= List.length seqs)

(* Scheme end to end. *)
let test_scheme_s27 () =
  let run = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  Alcotest.(check bool) "coverage verified" true run.Scheme.coverage_verified;
  Alcotest.(check int) "total faults" 32 run.total_faults;
  Alcotest.(check int) "detected by T0" 32 run.detected_by_t0;
  Alcotest.(check int) "t0 length" 10 run.t0_length;
  Alcotest.(check bool) "after <= before (count)" true
    (run.after.count <= run.before.count);
  Alcotest.(check bool) "after <= before (total)" true
    (run.after.total_length <= run.before.total_length);
  Alcotest.(check int) "expanded total = 16 * tot"
    (16 * run.after.total_length)
    run.expanded_total_length

let test_scheme_deterministic () =
  let a = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  let b = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  Alcotest.(check int) "same |S|" a.Scheme.after.count b.Scheme.after.count;
  Alcotest.(check bool) "same sequences" true
    (List.for_all2 Tseq.equal a.sequences b.sequences)

let test_best_n () =
  let best = Scheme.best_n ~seed:7 ~ns:[ 2; 4 ] ~t0:s27_t0 s27_universe in
  let r2 = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  let r4 = Scheme.execute ~seed:7 ~n:4 ~t0:s27_t0 s27_universe in
  let min_max = min r2.Scheme.after.max_length r4.Scheme.after.max_length in
  Alcotest.(check int) "best has minimal max length" min_max
    best.Scheme.after.max_length

let test_better_ignores_time () =
  let r2 = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  let with_ n seconds =
    { r2 with Scheme.n; proc1_seconds = seconds; compaction_seconds = seconds }
  in
  let n_of a b = (Scheme.better a b).Scheme.n in
  let fast4 = with_ 4 0.1 and slow4 = with_ 4 9.0 in
  let fast8 = with_ 8 0.1 and slow8 = with_ 8 9.0 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) "equal lengths: smaller n" 4 (n_of a b);
      Alcotest.(check int) "either order" 4 (n_of b a))
    [ (fast4, slow8); (slow4, fast8) ];
  let shorter = { slow8 with after = { r2.after with max_length = 0 } } in
  Alcotest.(check int) "length still comes first" 8 (n_of fast4 shorter);
  let a = Scheme.best_n ~seed:7 ~t0:s27_t0 s27_universe in
  let b = Scheme.best_n ~seed:7 ~t0:s27_t0 s27_universe in
  Alcotest.(check int) "best_n repeats its n" a.Scheme.n b.Scheme.n

let test_scheme_operator_ablation () =
  (* The scheme stays sound with restricted operator sets: whatever the
     pipeline, coverage of F must be preserved. *)
  List.iter
    (fun operators ->
      let run =
        Scheme.execute ~operators ~seed:7 ~n:2 ~t0:s27_t0 s27_universe
      in
      Alcotest.(check bool) "coverage verified" true run.Scheme.coverage_verified)
    [ [ Ops.Repeat ]; [ Ops.Repeat; Ops.Complement ];
      [ Ops.Repeat; Ops.Complement; Ops.Shift ]; [ Ops.Reverse ] ]

let suite =
  [
    Alcotest.test_case "paper Table 1" `Quick test_table1;
    test_expand_length;
    test_expand_prefix;
    test_expansion_factor;
    Alcotest.test_case "expand rejects n=0" `Quick test_expand_bad_n;
    Alcotest.test_case "paper 3.1 window [6,9]" `Quick test_procedure2_walkthrough;
    Alcotest.test_case "procedure2 detects target (all faults)" `Slow
      test_procedure2_detects_target;
    Alcotest.test_case "procedure2 bad udet" `Quick test_procedure2_bad_udet;
    Alcotest.test_case "procedure1 covers F" `Quick test_procedure1_covers;
    Alcotest.test_case "procedure1 fault orders" `Quick test_procedure1_fault_orders;
    Alcotest.test_case "procedure1 given table" `Quick test_procedure1_given_table;
    Alcotest.test_case "procedure1 teaching circuits" `Quick
      test_procedure1_teaching_circuits;
    Alcotest.test_case "postprocess preserves coverage" `Quick
      test_postprocess_preserves_coverage;
    Alcotest.test_case "postprocess single passes" `Quick test_postprocess_single_passes;
    Alcotest.test_case "postprocess drops duplicates" `Quick
      test_postprocess_drops_redundant;
    Alcotest.test_case "scheme on s27" `Quick test_scheme_s27;
    Alcotest.test_case "scheme deterministic" `Quick test_scheme_deterministic;
    Alcotest.test_case "best n rule" `Quick test_best_n;
    Alcotest.test_case "best n ignores run time" `Quick test_better_ignores_time;
    Alcotest.test_case "operator ablation stays sound" `Quick
      test_scheme_operator_ablation;
  ]
