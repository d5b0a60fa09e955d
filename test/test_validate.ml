(* Suites for Bist_circuit.Validate and Bist_tgen.Directed. *)

module Validate = Bist_circuit.Validate
module Netlist = Bist_circuit.Netlist

let parse = Bist_circuit.Bench_parser.parse_string

let names c nodes = List.map (Netlist.name c) nodes

let test_teaching_circuits_clean () =
  List.iter
    (fun circuit ->
      let r = Validate.check circuit in
      Alcotest.(check bool)
        (Netlist.circuit_name circuit ^ " clean")
        true (Validate.is_clean r))
    [ Bist_bench.Teaching.counter3 (); Bist_bench.Teaching.shift4 ();
      Bist_bench.Teaching.parity_fsm (); Bist_bench.S27.circuit () ]

let test_dangling () =
  let c =
    parse ~name:"d" "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\norphan = BUF(a)\n"
  in
  let r = Validate.check c in
  Alcotest.(check (list string)) "orphan flagged" [ "orphan" ] (names c r.Validate.dangling);
  Alcotest.(check (list string)) "orphan also unobservable" [ "orphan" ]
    (names c r.unobservable)

let test_unobservable_cone () =
  (* A whole cone feeding only the orphan is unobservable but only the
     orphan is dangling. *)
  let c =
    parse ~name:"cone"
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nmid = OR(a, b)\norphan = NOT(mid)\n"
  in
  let r = Validate.check c in
  Alcotest.(check (list string)) "dangling" [ "orphan" ] (names c r.Validate.dangling);
  Alcotest.(check (list string)) "unobservable includes cone" [ "mid"; "orphan" ]
    (List.sort compare (names c r.unobservable))

let test_uncontrollable_ff () =
  (* A flip-flop pair feeding each other, never touched by a PI. *)
  let c =
    parse ~name:"island"
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = BUF(q1)\n"
  in
  let r = Validate.check c in
  Alcotest.(check (list string)) "island flagged" [ "q1"; "q2" ]
    (List.sort compare (names c r.Validate.uncontrollable_ffs));
  Alcotest.(check (list string)) "also uninitializable" [ "q1"; "q2" ]
    (List.sort compare (names c r.maybe_uninitializable_ffs))

let test_uninitializable_self_loop () =
  (* q = DFF(XOR(q, a)) can never leave X: XOR propagates X forever. *)
  let c =
    parse ~name:"xloop"
      "INPUT(a)\nOUTPUT(p)\nq = DFF(d)\nd = XOR(q, a)\np = BUF(q)\n"
  in
  let r = Validate.check c in
  Alcotest.(check (list string)) "xor loop flagged" [ "q" ]
    (names c r.Validate.maybe_uninitializable_ffs);
  Alcotest.(check (list string)) "but controllable" []
    (names c r.uncontrollable_ffs)

let test_resettable_loop_not_flagged () =
  (* The same loop with a reset AND is initializable (counter3 pattern). *)
  let c =
    parse ~name:"rloop"
      "INPUT(a)\nINPUT(rst)\nOUTPUT(p)\nnrst = NOT(rst)\nq = DFF(d)\nx = XOR(q, a)\nd = AND(x, nrst)\np = BUF(q)\n"
  in
  let r = Validate.check c in
  Alcotest.(check (list string)) "not flagged" []
    (names c r.Validate.maybe_uninitializable_ffs)

let test_flagged_ff_faults_undetectable () =
  (* Cross-check against the fault simulator: faults on a flagged FF's
     output are never detected, by any random sequence. *)
  let c =
    parse ~name:"xloop"
      "INPUT(a)\nOUTPUT(p)\nq = DFF(d)\nd = XOR(q, a)\np = BUF(q)\n"
  in
  let q = Netlist.find_exn c "q" in
  let rng = Bist_util.Rng.create 3 in
  let seq = Bist_logic.Tseq.random_binary rng ~width:1 ~length:100 in
  List.iter
    (fun v ->
      let fault = Bist_fault.Fault.output_stuck q v in
      (* Detection would need the fault-free PO to go binary, which the
         X-locked loop forbids. *)
      Alcotest.(check bool) "undetectable" false (Bist_fault.Fsim.detects c fault seq))
    [ Bist_logic.Ternary.Zero; Bist_logic.Ternary.One ]

(* Directed search *)

(* The states a prefix leaves the fault-free machine and every fault it
   does not detect in: the frontier at its end. *)
let end_states universe prefix =
  (Bist_fault.Fsim.run ~record:[| Bist_logic.Tseq.length prefix |] universe prefix)
    .Bist_fault.Fsim.frontiers.(0)

let test_directed_finds_hard_fault () =
  (* Target a fault the shift register detects only after shifting a
     specific value through: directed search should find a segment. *)
  let c = Bist_bench.Teaching.shift4 () in
  let universe = Bist_fault.Universe.collapsed c in
  let rng = Bist_util.Rng.create 12 in
  let prefix = Bist_logic.Tseq.of_strings [ "0" ] in
  let f = end_states universe prefix in
  let held = Bist_fault.Fsim.frontier_faults f in
  Alcotest.(check int) "the prefix detects nothing" (Bist_fault.Universe.size universe)
    (Array.length held);
  let found = ref 0 in
  Array.iter
    (fun id ->
      let fault = Bist_fault.Universe.get universe id in
      let outcome =
        Bist_tgen.Directed.search ~rng ~good:(Bist_fault.Fsim.frontier_good f)
          ~faulty:(Bist_fault.Fsim.frontier_state f id) c fault
      in
      match outcome.Bist_tgen.Directed.segment with
      | None -> ()
      | Some seg ->
        incr found;
        (* the claim must be real: prefix . seg detects the fault *)
        let full = Bist_logic.Tseq.concat prefix seg in
        Alcotest.(check bool) "claimed detection is real" true
          (Bist_fault.Fsim.detects c fault full))
    held;
  Alcotest.(check bool) "finds most shift4 faults" true
    (!found >= Bist_fault.Universe.size universe / 2)

let test_directed_respects_budget () =
  let c = Bist_bench.Teaching.counter3 () in
  let universe = Bist_fault.Universe.collapsed c in
  let fault = Bist_fault.Universe.get universe 0 in
  let rng = Bist_util.Rng.create 12 in
  let config =
    { Bist_tgen.Directed.default_config with population = 4; generations = 3 }
  in
  let f = end_states universe (Bist_logic.Tseq.of_strings [ "00" ]) in
  let outcome =
    Bist_tgen.Directed.search ~config ~rng ~good:(Bist_fault.Fsim.frontier_good f)
      ~faulty:(Bist_fault.Fsim.frontier_state f 0) c fault
  in
  (* population evals + at most generations * (population - elite) more *)
  Alcotest.(check bool) "bounded evaluations" true
    (outcome.Bist_tgen.Directed.evaluations <= 4 + (3 * 4))

let suite =
  [
    Alcotest.test_case "teaching circuits clean" `Quick test_teaching_circuits_clean;
    Alcotest.test_case "dangling" `Quick test_dangling;
    Alcotest.test_case "unobservable cone" `Quick test_unobservable_cone;
    Alcotest.test_case "uncontrollable ff island" `Quick test_uncontrollable_ff;
    Alcotest.test_case "uninitializable xor loop" `Quick test_uninitializable_self_loop;
    Alcotest.test_case "resettable loop ok" `Quick test_resettable_loop_not_flagged;
    Alcotest.test_case "flagged ff faults undetectable" `Quick
      test_flagged_ff_faults_undetectable;
    Alcotest.test_case "directed finds shift4 faults" `Quick
      test_directed_finds_hard_fault;
    Alcotest.test_case "directed respects budget" `Quick test_directed_respects_budget;
  ]
