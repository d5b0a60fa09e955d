(* Suites for Bist_fault: universes, collapsing, and the fault
   simulators — including the exact reproduction of the paper's Table 2
   detection profile on s27. *)

module Tseq = Bist_logic.Tseq
module T = Bist_logic.Ternary
module Bitset = Bist_util.Bitset
module Fault = Bist_fault.Fault
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Fault_table = Bist_fault.Fault_table

let s27 = Bist_bench.S27.circuit ()
let s27_universe = Universe.collapsed s27
let s27_t0 = Bist_bench.S27.t0 ()

let test_universe_sizes () =
  Alcotest.(check int) "s27 full" 52 (Universe.size (Universe.full s27));
  (* 32 is the classic collapsed count for s27, and the paper's. *)
  Alcotest.(check int) "s27 collapsed" 32 (Universe.size s27_universe)

let test_universe_dedup () =
  let f = Fault.output_stuck 3 T.One in
  let u = Universe.of_faults s27 [ f; f; Fault.output_stuck 3 T.Zero ] in
  Alcotest.(check int) "dedup" 2 (Universe.size u)

let test_fault_names () =
  let g8 = Bist_circuit.Netlist.find_exn s27 "G8" in
  Alcotest.(check string) "stem name" "G8/1" (Fault.name s27 (Fault.output_stuck g8 T.One));
  Alcotest.(check string) "pin name" "G8.in0/0"
    (Fault.name s27 (Fault.pin_stuck ~gate:g8 ~pin:0 T.Zero))

let test_fault_stuck_binary () =
  Alcotest.check_raises "X rejected"
    (Invalid_argument "Fault.stuck_at: stuck value must be binary") (fun () ->
      ignore (Fault.output_stuck 0 T.X))

(* Every member of a collapse class must have the same detection profile
   under the paper's T0 — this validates the equivalence rules. *)
let test_collapse_classes_equivalent () =
  let classes = Bist_fault.Collapse.classes s27 in
  List.iter
    (fun cls ->
      match cls with
      | [] | [ _ ] -> ()
      | rep :: rest ->
        let dt f =
          let u = Universe.of_faults s27 [ f ] in
          (Fsim.run u s27_t0).Fsim.det_time.(0)
        in
        let rep_time = dt rep in
        List.iter
          (fun f ->
            Alcotest.(check int)
              (Printf.sprintf "%s ~ %s" (Fault.name s27 rep) (Fault.name s27 f))
              rep_time (dt f))
          rest)
    classes

(* Table 2 of the paper: first-detection counts per time unit. *)
let test_table2_profile () =
  let table = Fault_table.compute s27_universe s27_t0 in
  Alcotest.(check int) "all 32 detected" 32 (Fault_table.num_detected table);
  let expected = [ (0, 0); (1, 9); (2, 4); (3, 0); (4, 1); (5, 11); (6, 2); (7, 0); (8, 3); (9, 2) ] in
  List.iter
    (fun (u, count) ->
      Alcotest.(check int)
        (Printf.sprintf "faults first detected at u=%d" u)
        count
        (List.length (Fault_table.detected_at table u)))
    expected

let test_argmax_udet () =
  let table = Fault_table.compute s27_universe s27_t0 in
  let targets = Fault_table.detected table in
  match Fault_table.argmax_udet table ~targets with
  | None -> Alcotest.fail "expected a fault"
  | Some id ->
    Alcotest.(check (option int)) "udet = 9" (Some 9) (Fault_table.udet table id)
(* [Fsim.single] and [Fsim.run] share the Ppsfp kernel, so these two
   cases compare two paths of one kernel; the independent check of the
   single-fault path is the Packed_sim oracle in the ppsfp suite. *)
let test_serial_matches_parallel () =
  let outcome = Fsim.run s27_universe s27_t0 in
  Universe.iter
    (fun id fault ->
      let serial = Fsim.single s27 fault in
      let expected =
        if outcome.Fsim.det_time.(id) >= 0 then Some outcome.Fsim.det_time.(id)
        else None
      in
      Alcotest.(check (option int))
        (Fault.name s27 fault) expected
        (Fsim.single_detection_time serial s27_t0))
    s27_universe

(* The same differential on random circuits. *)
let test_serial_parallel_random =
  Testutil.qcheck
    (QCheck.Test.make ~name:"serial == parallel on random circuits" ~count:20
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let seq =
           Tseq.random_binary rng
             ~width:(Bist_circuit.Netlist.num_inputs circuit)
             ~length:len
         in
         let outcome = Fsim.run universe seq in
         Universe.fold
           (fun id fault acc ->
             acc
             &&
             let got = Fsim.single_detection_time (Fsim.single circuit fault) seq in
             got = (if outcome.Fsim.det_time.(id) >= 0 then Some outcome.Fsim.det_time.(id) else None))
           universe true))

let test_targets_restrict () =
  let targets = Bitset.create (Universe.size s27_universe) in
  Bitset.add targets 0;
  Bitset.add targets 5;
  let outcome = Fsim.run ~targets s27_universe s27_t0 in
  Universe.iter
    (fun id _ ->
      if not (Bitset.mem targets id) then
        Alcotest.(check int) "non-target untouched" (-1) outcome.Fsim.det_time.(id))
    s27_universe

(* Monotonicity: extending a sequence can only add detections. *)
let test_detection_monotone_in_length =
  Testutil.qcheck
    (QCheck.Test.make ~name:"longer sequence detects a superset" ~count:30
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let width = Bist_circuit.Netlist.num_inputs circuit in
         let seq = Tseq.random_binary rng ~width ~length:(len + 5) in
         let prefix = Tseq.sub seq ~lo:0 ~hi:(len - 1) in
         let d_full = (Fsim.run universe seq).Fsim.detected in
         let d_pre = (Fsim.run universe prefix).Fsim.detected in
         Bitset.subset d_pre d_full))

(* Embedding: a fault detected by a segment standalone stays detected
   when the segment runs after a warm-up prefix (ternary monotonicity) —
   the property the T0 engine relies on. *)
let test_embedding_preserves_detection =
  Testutil.qcheck
    (QCheck.Test.make ~name:"warm-up prefix preserves detections" ~count:30
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let width = Bist_circuit.Netlist.num_inputs circuit in
         let warmup = Tseq.random_binary rng ~width ~length:10 in
         let seg = Tseq.random_binary rng ~width ~length:len in
         let standalone = (Fsim.run universe seg).Fsim.detected in
         let embedded = (Fsim.run universe (Tseq.concat warmup seg)).Fsim.detected in
         Bitset.subset standalone embedded))

let test_coverage_value () =
  let outcome = Fsim.run s27_universe s27_t0 in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Fsim.coverage outcome)

let test_fault_table_render () =
  let table = Fault_table.compute s27_universe s27_t0 in
  let text = Fault_table.render table in
  Alcotest.(check bool) "mentions a fault" true
    (String.length text > 50
     && (let found = ref false in
         String.iteri (fun i c -> if c = '/' && i > 0 then found := true) text;
         !found))

let suite =
  [
    Alcotest.test_case "universe sizes" `Quick test_universe_sizes;
    Alcotest.test_case "universe dedup" `Quick test_universe_dedup;
    Alcotest.test_case "fault names" `Quick test_fault_names;
    Alcotest.test_case "stuck value binary" `Quick test_fault_stuck_binary;
    Alcotest.test_case "collapse classes equivalent" `Slow test_collapse_classes_equivalent;
    Alcotest.test_case "paper Table 2 profile" `Quick test_table2_profile;
    Alcotest.test_case "argmax udet" `Quick test_argmax_udet;
    Alcotest.test_case "serial matches parallel (s27)" `Quick test_serial_matches_parallel;
    test_serial_parallel_random;
    Alcotest.test_case "targets restrict" `Quick test_targets_restrict;
    test_detection_monotone_in_length;
    test_embedding_preserves_detection;
    Alcotest.test_case "coverage" `Quick test_coverage_value;
    Alcotest.test_case "table renders" `Quick test_fault_table_render;
  ]
