(* Suites for Bist_analyze: SCOAP measures, the static untestability
   prover (with its no-false-positive property), the S-graph pass and
   the lint driver. *)

module Netlist = Bist_circuit.Netlist
module Scoap = Bist_analyze.Scoap
module Untestable = Bist_analyze.Untestable
module Sgraph = Bist_analyze.Sgraph
module Lint = Bist_analyze.Lint
module Universe = Bist_fault.Universe
module Fault = Bist_fault.Fault
module Fsim = Bist_fault.Fsim
module Bitset = Bist_util.Bitset
module T = Bist_logic.Ternary

let parse = Bist_circuit.Bench_parser.parse_string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Crafted circuits used across the suites. *)

(* A CONST0 tie: every fault on [a] is propagation-blocked at the AND,
   g stuck-at-0 is unexcitable (g is solidly 0), and tie/1 and g/1 stay
   testable. *)
let const_blocked () =
  parse ~name:"tied"
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ntie = CONST0()\ng = AND(a, tie)\ny = OR(g, b)\n"

(* q = DFF(XOR(q, a)) never leaves X, so faults on q are unexcitable. *)
let x_loop () =
  parse ~name:"xloop" "INPUT(a)\nOUTPUT(p)\nq = DFF(d)\nd = XOR(q, a)\np = BUF(q)\n"

(* A cyclic state core {q1, q2} whose members only synchronize at rounds
   1 and 2 (never 0): initializable, but only by bootstrapping through
   its own feedback — the x-risk pattern. q3 synchronizes at round 0. *)
let risky_core () =
  parse ~name:"risky"
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq3 = DFF(b)\nm = AND(q3, b)\n\
     xq = XOR(q1, a)\nd2 = OR(xq, m)\nq2 = DFF(d2)\nd1 = XOR(q2, a)\n\
     q1 = DFF(d1)\ny = BUF(q1)\n"

(* SCOAP *)

let s27 () = Bist_bench.S27.circuit ()

let check_measures name measure expected =
  let c = s27 () in
  let s = Scoap.compute c in
  List.iter
    (fun (node, want) ->
      Alcotest.(check int)
        (Printf.sprintf "%s(%s)" name node)
        want
        (measure s (Netlist.find_exn c node)))
    expected

(* Hand-computed fixpoint over the real s27 (iterated to convergence on
   paper). Inputs cost 1, every gate adds 1, DFFs add 1. *)
let test_scoap_cc () =
  let c = s27 () in
  let s = Scoap.compute c in
  List.iter
    (fun (node, w0, w1) ->
      let n = Netlist.find_exn c node in
      Alcotest.(check int) ("cc0 " ^ node) w0 (Scoap.cc0 s n);
      Alcotest.(check int) ("cc1 " ^ node) w1 (Scoap.cc1 s n))
    [ ("G0", 1, 1); ("G1", 1, 1); ("G2", 1, 1); ("G3", 1, 1);
      ("G14", 2, 2); ("G12", 2, 5); ("G13", 2, 4); ("G7", 3, 5);
      ("G10", 3, 10); ("G5", 4, 11); ("G11", 7, 14); ("G6", 8, 15);
      ("G8", 3, 18); ("G15", 6, 6); ("G16", 5, 2); ("G9", 9, 6);
      ("G17", 15, 8) ]

let test_scoap_sc () =
  let c = s27 () in
  let s = Scoap.compute c in
  List.iter
    (fun (node, w0, w1) ->
      let n = Netlist.find_exn c node in
      Alcotest.(check int) ("sc0 " ^ node) w0 (Scoap.sc0 s n);
      Alcotest.(check int) ("sc1 " ^ node) w1 (Scoap.sc1 s n))
    [ ("G0", 0, 0); ("G14", 0, 0); ("G12", 0, 1); ("G13", 0, 0);
      ("G7", 1, 1); ("G10", 0, 0); ("G5", 1, 1); ("G11", 0, 2);
      ("G6", 1, 3); ("G8", 0, 3); ("G15", 0, 1); ("G16", 0, 0);
      ("G9", 1, 0); ("G17", 2, 0) ]

let test_scoap_co () =
  check_measures "co" Scoap.co
    [ ("G17", 0); ("G11", 1); ("G9", 6); ("G15", 9); ("G16", 13);
      ("G8", 12); ("G6", 15); ("G5", 11); ("G10", 12); ("G12", 13);
      ("G13", 16); ("G7", 15); ("G14", 20); ("G0", 21); ("G1", 17);
      ("G2", 19); ("G3", 17) ]

let test_scoap_so () =
  check_measures "so" Scoap.so
    [ ("G17", 0); ("G11", 0); ("G9", 1); ("G5", 1); ("G15", 1);
      ("G16", 2); ("G8", 1); ("G6", 1); ("G10", 2); ("G12", 1);
      ("G7", 1); ("G13", 2); ("G14", 2); ("G0", 2); ("G1", 2);
      ("G2", 2); ("G3", 2) ]

let test_scoap_saturates () =
  (* The tied AND can never output 1: its cc1 must saturate, not
     overflow or diverge. *)
  let c = const_blocked () in
  let s = Scoap.compute c in
  let g = Netlist.find_exn c "g" in
  Alcotest.(check bool) "cc1 saturated" true (Scoap.cc1 s g >= Scoap.infinite);
  Alcotest.(check bool) "cc0 finite" true (Scoap.cc0 s g < Scoap.infinite)

let test_order_hardest_first () =
  let c = s27 () in
  let u = Universe.collapsed c in
  let s = Scoap.compute c in
  let ids = Array.init (Universe.size u) Fun.id in
  Bist_tgen.Directed.order_hardest_first s u ids;
  let cost i = Scoap.fault_cost s (Universe.get u i) in
  for k = 0 to Array.length ids - 2 do
    let a = ids.(k) and b = ids.(k + 1) in
    Alcotest.(check bool) "non-increasing cost" true (cost a >= cost b);
    if cost a = cost b then
      Alcotest.(check bool) "ties by ascending id" true (a < b)
  done;
  (* a permutation, not a projection *)
  let sorted = Array.copy ids in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true
    (sorted = Array.init (Universe.size u) Fun.id)

(* Untestability prover *)

let find_fault c u name =
  let found = ref None in
  Universe.iter (fun id f -> if Fault.name c f = name then found := Some (id, f)) u;
  match !found with
  | Some x -> x
  | None -> Alcotest.failf "fault %s not in universe" name

let reason_testable = Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with None -> "testable" | Some r -> Untestable.reason_name r))
    ( = )

let test_prover_const_blocked () =
  let c = const_blocked () in
  let t = Untestable.analyze c in
  let chk name want =
    Alcotest.check reason_testable name want
      (Untestable.check t (snd (find_fault c (Universe.full c) name)))
  in
  chk "a/0" (Some Untestable.Blocked);
  chk "a/1" (Some Untestable.Blocked);
  chk "g/0" (Some Untestable.Unexcitable);
  chk "g/1" None;
  chk "tie/1" None;
  chk "tie/0" (Some Untestable.Unexcitable);
  chk "b/0" None;
  chk "y/1" None

let test_prover_unobservable () =
  let c =
    parse ~name:"cone"
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nmid = OR(a, b)\norphan = NOT(mid)\n"
  in
  let t = Untestable.analyze c in
  let chk name want =
    Alcotest.check reason_testable name want
      (Untestable.check t (snd (find_fault c (Universe.full c) name)))
  in
  chk "orphan/0" (Some Untestable.Unobservable);
  chk "orphan/1" (Some Untestable.Unobservable);
  chk "y/0" None

let test_prover_x_loop () =
  let c = x_loop () in
  let t = Untestable.analyze c in
  let chk name want =
    Alcotest.check reason_testable name want
      (Untestable.check t (snd (find_fault c (Universe.full c) name)))
  in
  chk "q/0" (Some Untestable.Unexcitable);
  chk "q/1" (Some Untestable.Unexcitable)

let test_prescreen_counts () =
  let c = const_blocked () in
  let u = Universe.collapsed c in
  let p = Untestable.prescreen_universe u in
  (* Collapsing merges the equivalent stem faults {a/0, g/0, tie/0} into a
     single class, so the collapsed count is 2, not the 6 raw faults. *)
  Alcotest.(check bool) "removes faults" true (Untestable.total p >= 2);
  Alcotest.(check int) "bitset agrees with counts" (Untestable.total p)
    (Bitset.cardinal p.Untestable.untestable);
  Alcotest.(check bool) "but not all" true
    (Untestable.total p < Universe.size u)

(* The soundness property: nothing the prover removes is ever detected
   by the packed fault simulator, under any sequence we throw at it. *)
let assert_no_false_positive ?(seeds = [ 1; 2; 3 ]) ?(length = 120) c =
  let u = Universe.collapsed c in
  let p = Untestable.prescreen_universe u in
  if not (Bitset.is_empty p.Untestable.untestable) then
    List.iter
      (fun seed ->
        let rng = Bist_util.Rng.create seed in
        let seq =
          Bist_logic.Tseq.random_binary rng ~width:(Netlist.num_inputs c)
            ~length
        in
        let outcome = Fsim.run ~targets:p.Untestable.untestable u seq in
        Bitset.iter
          (fun id ->
            Alcotest.failf "untestable fault %s detected on %s (seed %d)"
              (Fault.name c (Universe.get u id))
              (Netlist.circuit_name c) seed)
          outcome.Fsim.detected)
      seeds

let test_no_false_positives_known () =
  List.iter assert_no_false_positive
    [ s27 (); Bist_bench.Teaching.counter3 (); Bist_bench.Teaching.shift4 ();
      Bist_bench.Teaching.parity_fsm (); const_blocked (); x_loop ();
      risky_core () ]

let test_no_false_positives_synthetic =
  Testutil.qcheck
    (QCheck.Test.make ~name:"prover never contradicts the fault simulator"
       ~count:25
       (QCheck.make
          ~print:(fun seed -> Printf.sprintf "circuit seed %d" seed)
          QCheck.Gen.(int_range 0 400))
       (fun seed ->
         assert_no_false_positive ~seeds:[ seed ] (Testutil.small_circuit seed);
         true))

(* Engine integration *)

let test_engine_prescreen () =
  let c = const_blocked () in
  let u = Universe.collapsed c in
  let rng = Bist_util.Rng.create 7 in
  let t0, stats = Bist_tgen.Engine.generate ~rng u in
  Alcotest.(check bool) "prescreen removed faults" true
    (stats.Bist_tgen.Engine.statically_untestable >= 2);
  (* The untestable faults were undetectable anyway, so the generator
     must still reach full coverage of the testable rest. *)
  Alcotest.(check int) "full coverage of testable faults"
    (stats.total_faults - stats.statically_untestable)
    stats.detected;
  Alcotest.(check bool) "t0 nonempty" true (Bist_logic.Tseq.length t0 > 0)

let test_engine_prescreen_off () =
  let c = const_blocked () in
  let u = Universe.collapsed c in
  let rng = Bist_util.Rng.create 7 in
  let config =
    { (Bist_tgen.Engine.default_config c) with Bist_tgen.Engine.prescreen = false }
  in
  let _, stats = Bist_tgen.Engine.generate ~config ~rng u in
  Alcotest.(check int) "no prescreen stat" 0
    stats.Bist_tgen.Engine.statically_untestable

(* S-graph *)

let test_sgraph_s27 () =
  let c = s27 () in
  let g = Sgraph.analyze c in
  Alcotest.(check int) "ffs" 3 (Sgraph.num_ffs g);
  Alcotest.(check int) "sccs" 2 (Sgraph.num_sccs g);
  Alcotest.(check int) "largest" 2 (Sgraph.largest_scc g);
  Alcotest.(check int) "cyclic sccs" 2 (Sgraph.nontrivial_sccs g);
  Alcotest.(check int) "depth" 2 (Sgraph.depth g);
  List.iter
    (fun ff ->
      Alcotest.(check int) ("level " ^ ff) 0
        (Sgraph.sync_level g (Netlist.find_exn c ff)))
    [ "G5"; "G6"; "G7" ];
  Alcotest.(check (list string)) "no risk" [] (List.map (Netlist.name c) (Sgraph.x_risk g))

let test_sgraph_shift4 () =
  let c = Bist_bench.Teaching.shift4 () in
  let g = Sgraph.analyze c in
  Alcotest.(check int) "ffs" 4 (Sgraph.num_ffs g);
  Alcotest.(check int) "largest scc" 1 (Sgraph.largest_scc g);
  Alcotest.(check int) "no cycles" 0 (Sgraph.nontrivial_sccs g);
  Alcotest.(check int) "depth = chain length" 4 (Sgraph.depth g);
  (* Exact synchronization rounds down the chain. *)
  let levels =
    Array.to_list (Netlist.dffs c)
    |> List.map (fun ff -> Sgraph.sync_level g ff)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "levels 0..3" [ 0; 1; 2; 3 ] levels

let test_sgraph_risky_core () =
  let c = risky_core () in
  let g = Sgraph.analyze c in
  Alcotest.(check (list string)) "nothing uninitializable" []
    (List.map (Netlist.name c) (Sgraph.uninitializable g));
  Alcotest.(check int) "q3 at round 0" 0 (Sgraph.sync_level g (Netlist.find_exn c "q3"));
  Alcotest.(check (list string)) "core flagged" [ "q1"; "q2" ]
    (List.sort compare (List.map (Netlist.name c) (Sgraph.x_risk g)))

let test_sgraph_x_loop () =
  let c = x_loop () in
  let g = Sgraph.analyze c in
  Alcotest.(check int) "level -1" (-1) (Sgraph.sync_level g (Netlist.find_exn c "q"));
  Alcotest.(check (list string)) "uninitializable" [ "q" ]
    (List.map (Netlist.name c) (Sgraph.uninitializable g));
  Alcotest.(check (list string)) "also x-risk" [ "q" ]
    (List.map (Netlist.name c) (Sgraph.x_risk g))

let test_x5378_gap_flagged () =
  (* The known x5378 anomaly (DESIGN.md: X-contaminated MISR signature)
     must surface as a named lint finding, not stay a silent gap. *)
  let entry = Option.get (Bist_bench.Registry.find "x5378") in
  let c = entry.Bist_bench.Registry.circuit () in
  let g = Sgraph.analyze (c : Netlist.t) in
  Alcotest.(check bool) "x-risk nonempty" true (Sgraph.x_risk g <> [])

(* Lint driver *)

let categories r = List.map (fun f -> f.Lint.category) r.Lint.findings

let test_lint_clean_circuit () =
  let r = Lint.run (Bist_bench.Teaching.counter3 ()) in
  Alcotest.(check int) "no errors" 0 (Lint.errors r);
  Alcotest.(check int) "no warnings" 0 (Lint.warnings r);
  (* infos always present on sequential circuits *)
  Alcotest.(check bool) "s-graph info" true (List.mem "s-graph" (categories r));
  Alcotest.(check bool) "scoap info" true (List.mem "scoap" (categories r))

let test_lint_categories () =
  let island =
    parse ~name:"island"
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = BUF(q1)\n"
  in
  let r = Lint.run island in
  Alcotest.(check bool) "uncontrollable-ff is an error" true
    (List.exists
       (fun f -> f.Lint.category = "uncontrollable-ff" && f.severity = Lint.Error)
       r.Lint.findings);
  Alcotest.(check bool) "uninitializable-ff" true
    (List.mem "uninitializable-ff" (categories r));
  Alcotest.(check bool) "errors counted" true (Lint.errors r >= 1);
  let orphaned =
    parse ~name:"d" "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\norphan = BUF(a)\n"
  in
  let r2 = Lint.run orphaned in
  Alcotest.(check bool) "dangling" true (List.mem "dangling" (categories r2));
  Alcotest.(check bool) "unobservable" true (List.mem "unobservable" (categories r2));
  let r3 = Lint.run (const_blocked ()) in
  Alcotest.(check bool) "untestable-faults" true
    (List.mem "untestable-faults" (categories r3));
  let r4 = Lint.run (risky_core ()) in
  Alcotest.(check bool) "x-risk" true (List.mem "x-risk" (categories r4))

let test_lint_pp () =
  let r = Lint.run (const_blocked ()) in
  let text = Format.asprintf "%a" Lint.pp r in
  Alcotest.(check bool) "circuit name" true (contains text "tied:");
  Alcotest.(check bool) "severity tag" true (contains text "warning[untestable-faults]");
  Alcotest.(check bool) "summary line" true (contains text "error(s)");
  let rr = Lint.run (risky_core ()) in
  let t2 = Format.asprintf "%a" Lint.pp rr in
  Alcotest.(check bool) "x-risk line lists ffs" true (contains t2 "q1 q2")

let test_lint_json () =
  let check_json c wanted_categories =
    let r = Lint.run c in
    let json = Lint.to_json r in
    Alcotest.(check bool) "object shape" true
      (contains json "{\"circuit\":" && contains json "\"findings\":[");
    List.iter
      (fun cat ->
        Alcotest.(check bool) ("category " ^ cat) true
          (contains json (Printf.sprintf "\"category\":%S" cat)))
      wanted_categories
  in
  check_json (const_blocked ()) [ "untestable-faults"; "scoap" ];
  check_json (risky_core ()) [ "x-risk"; "s-graph" ];
  check_json
    (parse ~name:"island"
       "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUF(a)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = BUF(q1)\n")
    [ "uncontrollable-ff"; "uninitializable-ff" ];
  (* escaping: a name with a quote must stay valid-ish *)
  Alcotest.(check string) "string escaping" "\"a\\\"b\""
    (Lint.to_json { Lint.circuit = "a\"b"; findings = [] }
     |> fun s -> String.sub s 11 6);
  (* control bytes and backslashes must come back intact from a real
     JSON parser *)
  let name = "a\\b\tc\rd\001e\"f" in
  let module J = Bist_obs.Json_check in
  match J.parse (Lint.to_json { Lint.circuit = name; findings = [] }) with
  | Ok json ->
    Alcotest.(check (option string)) "escaped name round-trips" (Some name)
      (match J.member "circuit" json with
      | Some (J.String s) -> Some s
      | _ -> None)
  | Error e -> Alcotest.failf "Lint.to_json is not JSON: %s" e

let suite =
  [
    Alcotest.test_case "scoap s27 cc" `Quick test_scoap_cc;
    Alcotest.test_case "scoap s27 sc" `Quick test_scoap_sc;
    Alcotest.test_case "scoap s27 co" `Quick test_scoap_co;
    Alcotest.test_case "scoap s27 so" `Quick test_scoap_so;
    Alcotest.test_case "scoap saturating" `Quick test_scoap_saturates;
    Alcotest.test_case "hardest-first order" `Quick test_order_hardest_first;
    Alcotest.test_case "prover const-blocked" `Quick test_prover_const_blocked;
    Alcotest.test_case "prover unobservable cone" `Quick test_prover_unobservable;
    Alcotest.test_case "prover x loop" `Quick test_prover_x_loop;
    Alcotest.test_case "prescreen counts" `Quick test_prescreen_counts;
    Alcotest.test_case "no false positives (known circuits)" `Quick
      test_no_false_positives_known;
    test_no_false_positives_synthetic;
    Alcotest.test_case "engine prescreen" `Quick test_engine_prescreen;
    Alcotest.test_case "engine prescreen off" `Quick test_engine_prescreen_off;
    Alcotest.test_case "sgraph s27" `Quick test_sgraph_s27;
    Alcotest.test_case "sgraph shift4" `Quick test_sgraph_shift4;
    Alcotest.test_case "sgraph risky core" `Quick test_sgraph_risky_core;
    Alcotest.test_case "sgraph x loop" `Quick test_sgraph_x_loop;
    Alcotest.test_case "x5378 gap is flagged" `Quick test_x5378_gap_flagged;
    Alcotest.test_case "lint clean circuit" `Quick test_lint_clean_circuit;
    Alcotest.test_case "lint categories" `Quick test_lint_categories;
    Alcotest.test_case "lint pp" `Quick test_lint_pp;
    Alcotest.test_case "lint json" `Quick test_lint_json;
  ]
