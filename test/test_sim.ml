(* Suites for Bist_sim: Seq_sim semantics on known circuits, and the
   packed simulator's lane-0 equivalence with the scalar simulator. *)

module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module Seq_sim = Bist_sim.Seq_sim
module Netlist = Bist_circuit.Netlist

let run_strings circuit strings =
  Seq_sim.run circuit (Tseq.of_strings strings) |> Array.map Vector.to_string

let test_counter_counts () =
  let c = Bist_bench.Teaching.counter3 () in
  (* rst=1 one cycle, then count 5 cycles with en=1; outputs are the
     state *during* each cycle, so the reset shows at the next cycle. *)
  let out = run_strings c [ "10"; "01"; "01"; "01"; "01"; "01" ] in
  Alcotest.(check (array string)) "count sequence"
    [| "xxx"; "000"; "100"; "010"; "110"; "001" |]
    out

let test_counter_hold () =
  let c = Bist_bench.Teaching.counter3 () in
  let out = run_strings c [ "10"; "01"; "00"; "00"; "01" ] in
  (* en=0 holds the state *)
  Alcotest.(check string) "held" "100" out.(3);
  Alcotest.(check string) "resumes" "100" out.(4)

let test_shift4 () =
  let c = Bist_bench.Teaching.shift4 () in
  let out = run_strings c [ "1"; "0"; "1"; "1"; "0" ] in
  Alcotest.(check string) "initial all X" "xxxx" out.(0);
  Alcotest.(check string) "after 4 shifts" "1101" out.(4)

let test_parity () =
  let c = Bist_bench.Teaching.parity_fsm () in
  (* inputs: rst, d *)
  let out = run_strings c [ "10"; "01"; "01"; "00"; "01" ] in
  Alcotest.(check (array string)) "parity trace" [| "x"; "0"; "1"; "0"; "0" |] out

let test_gray3 () =
  let c = Bist_bench.Teaching.gray3 () in
  (* reset, then 4 enabled counts: Gray outputs 000,100,110,010,011... *)
  let out = run_strings c [ "10"; "01"; "01"; "01"; "01"; "01" ] in
  Alcotest.(check (array string)) "gray sequence"
    [| "xxx"; "000"; "100"; "110"; "010"; "011" |]
    out;
  (* single-bit-change property over the enabled steps *)
  let changes a b =
    let d = ref 0 in
    String.iteri (fun i ca -> if ca <> b.[i] then incr d) a;
    !d
  in
  for i = 1 to 4 do
    Alcotest.(check int) "one bit flips" 1 (changes out.(i) out.(i + 1))
  done

let test_johnson4 () =
  let c = Bist_bench.Teaching.johnson4 () in
  let out = run_strings c [ "1"; "0"; "0"; "0"; "0"; "0"; "0"; "0"; "0" ] in
  Alcotest.(check (array string)) "johnson ring"
    [| "xxxx"; "0000"; "1000"; "1100"; "1110"; "1111"; "0111"; "0011"; "0001" |]
    out

let test_x_initial_state () =
  let c = Bist_bench.Teaching.shift4 () in
  let sim = Seq_sim.create c in
  Alcotest.(check bool) "all FFs X at reset" true
    (Array.for_all (fun v -> T.equal v T.X) (Seq_sim.ff_state sim));
  ignore (Seq_sim.step sim (Vector.of_string "1"));
  Alcotest.(check bool) "one FF binary after a step" true
    (Array.exists T.is_binary (Seq_sim.ff_state sim));
  Seq_sim.reset sim;
  Alcotest.(check bool) "reset returns to X" true
    (Array.for_all (fun v -> T.equal v T.X) (Seq_sim.ff_state sim))

let test_width_check () =
  let c = Bist_bench.Teaching.shift4 () in
  let sim = Seq_sim.create c in
  Alcotest.check_raises "width" (Invalid_argument "Seq_sim.step: vector width mismatch")
    (fun () -> ignore (Seq_sim.step sim (Vector.of_string "10")))

(* Differential: packed lane 0 with no forces == scalar simulator, over
   random circuits and random (possibly X-bearing) sequences. *)
let test_packed_lane0_equals_scalar =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Packed_sim lane 0 == Seq_sim" ~count:60
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let width = Netlist.num_inputs circuit in
         let rng = Bist_util.Rng.create sseed in
         let seq = Tseq.random_binary rng ~width ~length:len in
         Testutil.packed_lane0_matches_seq_sim circuit seq))

(* An output force on lane k makes that lane behave like the forced
   constant; lane 0 stays fault-free. *)
let test_packed_forcing () =
  let c = Bist_bench.Teaching.shift4 () in
  let sim = Packed_sim.create c in
  let q0 = Netlist.find_exn c "q0" in
  Packed_sim.add_output_force sim q0 ~mask:0b10 T.One;
  Packed_sim.step sim (Vector.of_string "0");
  Packed_sim.step sim (Vector.of_string "0");
  Packed_sim.step sim (Vector.of_string "0");
  (* After three cycles q1's fault-free value is the 0 shifted in at
     cycle 1, while lane 1 carries the forced q0. *)
  let q1_word = Packed_sim.po_value sim 1 in
  Alcotest.check Testutil.ternary_testable "lane0 good" T.Zero
    (Packed.get q1_word 0);
  Alcotest.check Testutil.ternary_testable "lane1 faulty" T.One
    (Packed.get q1_word 1);
  Alcotest.(check bool) "diff detected" true (Packed_sim.po_diff_lanes sim land 0b10 <> 0)

let test_packed_pin_force_is_local () =
  (* Force only b1's input pin (branch of q0): q1 is affected, but the
     other consumer of q0 (the PO) is not. *)
  let c =
    Bist_circuit.Bench_parser.parse_string ~name:"branch"
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nb = BUF(a)\ny = BUF(b)\nz = NOT(b)\n"
  in
  let sim = Packed_sim.create c in
  let y_gate = Netlist.find_exn c "y" in
  Packed_sim.add_pin_force sim ~gate:y_gate ~pin:0 ~mask:0b10 T.Zero;
  Packed_sim.step sim (Vector.of_string "1");
  let y = Packed_sim.po_value sim 0 and z = Packed_sim.po_value sim 1 in
  Alcotest.check Testutil.ternary_testable "y lane1 forced" T.Zero
    (Packed.get y 1);
  Alcotest.check Testutil.ternary_testable "z lane1 unaffected" T.Zero
    (Packed.get z 1);
  Alcotest.check Testutil.ternary_testable "y lane0 good" T.One
    (Packed.get y 0)

let test_packed_clear_forces () =
  let c = Bist_bench.Teaching.shift4 () in
  let sim = Packed_sim.create c in
  let q0 = Netlist.find_exn c "q0" in
  Packed_sim.add_output_force sim q0 ~mask:0b10 T.One;
  Packed_sim.clear_forces sim;
  Packed_sim.reset sim;
  Packed_sim.step sim (Vector.of_string "0");
  Packed_sim.step sim (Vector.of_string "0");
  Alcotest.(check int) "no diffs after clear" 0 (Packed_sim.po_diff_lanes sim)

let test_packed_lane0_reserved () =
  let c = Bist_bench.Teaching.shift4 () in
  let sim = Packed_sim.create c in
  Alcotest.check_raises "lane 0"
    (Invalid_argument "Packed_sim: lane 0 is reserved for the fault-free machine")
    (fun () -> Packed_sim.add_output_force sim 0 ~mask:1 T.One)

let suite =
  [
    Alcotest.test_case "counter counts" `Quick test_counter_counts;
    Alcotest.test_case "counter hold" `Quick test_counter_hold;
    Alcotest.test_case "shift register" `Quick test_shift4;
    Alcotest.test_case "parity fsm" `Quick test_parity;
    Alcotest.test_case "gray counter" `Quick test_gray3;
    Alcotest.test_case "johnson counter" `Quick test_johnson4;
    Alcotest.test_case "X initial state" `Quick test_x_initial_state;
    Alcotest.test_case "width check" `Quick test_width_check;
    test_packed_lane0_equals_scalar;
    Alcotest.test_case "packed forcing" `Quick test_packed_forcing;
    Alcotest.test_case "pin force is local" `Quick test_packed_pin_force_is_local;
    Alcotest.test_case "clear forces" `Quick test_packed_clear_forces;
    Alcotest.test_case "lane 0 reserved" `Quick test_packed_lane0_reserved;
  ]
