(* Cross-cutting property tests: the soundness lemmas the scheme's
   correctness argument rests on, exercised on random circuits. *)

module Tseq = Bist_logic.Tseq
module T = Bist_logic.Ternary
module Bitset = Bist_util.Bitset
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Ops = Bist_core.Ops

(* THE lemma: an expanded sequence detects everything its stored seed
   detects (because the seed is a prefix and detection is monotone under
   information refinement — here checked directly by simulation). *)
let test_expansion_detects_superset =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Sexp detects a superset of S" ~count:25
       QCheck.(pair Testutil.circuit_and_seq (int_range 1 3))
       (fun ((cseed, sseed, len), n) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let s =
           Tseq.random_binary rng
             ~width:(Bist_circuit.Netlist.num_inputs circuit)
             ~length:len
         in
         let d_s = (Fsim.run universe s).Fsim.detected in
         let d_exp = (Fsim.run universe (Ops.expand ~n s)).Fsim.detected in
         Bitset.subset d_s d_exp))

(* The same for every partial operator pipeline. *)
let test_partial_expansion_detects_superset =
  Testutil.qcheck
    (QCheck.Test.make ~name:"partial pipelines keep the prefix property" ~count:20
       QCheck.(
         pair Testutil.circuit_and_seq
           (oneofl
              [ [ Ops.Repeat ]; [ Ops.Complement ]; [ Ops.Shift ];
                [ Ops.Reverse ]; [ Ops.Complement; Ops.Reverse ] ]))
       (fun ((cseed, sseed, len), operators) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let s =
           Tseq.random_binary rng
             ~width:(Bist_circuit.Netlist.num_inputs circuit)
             ~length:len
         in
         let d_s = (Fsim.run universe s).Fsim.detected in
         let exp = Ops.expand_with ~operators ~n:2 s in
         Bitset.subset d_s (Fsim.run universe exp).Fsim.detected))

(* End-to-end on random circuits: the scheme's verified flag holds. *)
let test_scheme_sound_on_random_circuits =
  Testutil.qcheck
    (QCheck.Test.make ~name:"scheme preserves coverage on random circuits"
       ~count:10 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let t0 =
           Tseq.random_binary rng
             ~width:(Bist_circuit.Netlist.num_inputs circuit)
             ~length:(len + 10)
         in
         let run = Bist_core.Scheme.execute ~seed:sseed ~n:2 ~t0 universe in
         run.Bist_core.Scheme.coverage_verified))

(* Procedure 1's window bookkeeping stays inside T0. *)
let test_windows_inside_t0 () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let t0 = Bist_bench.S27.t0 () in
  let rng = Bist_util.Rng.create 9 in
  let result = Bist_core.Procedure1.run ~rng ~n:2 ~t0 universe in
  List.iter
    (fun (sel : Bist_core.Procedure1.selected) ->
      let o = sel.proc2 in
      Alcotest.(check bool) "ustart in range" true
        (o.Bist_core.Procedure2.ustart >= 0
         && o.Bist_core.Procedure2.ustart + o.window_length <= Tseq.length t0);
      Alcotest.(check bool) "stored <= window" true
        (Tseq.length sel.seq <= o.window_length))
    result.Bist_core.Procedure1.selected

(* Packed_sim snapshots: branching two different suffixes off one prefix
   gives the same results as simulating each full sequence. *)
let test_snapshot_restore () =
  let circuit = Bist_bench.Teaching.counter3 () in
  let sim = Packed_sim.create circuit in
  let v s = Bist_logic.Vector.of_string s in
  Packed_sim.step sim (v "10");
  Packed_sim.step sim (v "01");
  let snap = Packed_sim.save_state sim in
  Packed_sim.step sim (v "01");
  let after_a = Packed.get (Packed_sim.po_value sim 0) 0 in
  Packed_sim.restore_state sim snap;
  Packed_sim.step sim (v "01");
  let after_a' = Packed.get (Packed_sim.po_value sim 0) 0 in
  Alcotest.check Testutil.ternary_testable "branch replays" after_a after_a';
  Packed_sim.restore_state sim snap;
  Packed_sim.step sim (v "00");
  (* en=0 holds: q0 still 1 from the count step *)
  Alcotest.check Testutil.ternary_testable "other branch differs" T.One
    (Packed.get (Packed_sim.po_value sim 0) 0)

let test_state_diff_count () =
  let circuit = Bist_bench.Teaching.shift4 () in
  let sim = Packed_sim.create circuit in
  let q0 = Bist_circuit.Netlist.find_exn circuit "q0" in
  Packed_sim.add_output_force sim q0 ~mask:0b10 T.One;
  Packed_sim.step sim (Bist_logic.Vector.of_string "0");
  Packed_sim.step sim (Bist_logic.Vector.of_string "0");
  (* lane1 has q0 forced to 1 and q1 latched 1 vs good 0/0 *)
  Alcotest.(check bool) "some divergence" true
    (Packed_sim.state_diff_count sim ~lane:1 >= 1)

(* Controller misuse is rejected. *)
let test_controller_finished_error () =
  let m = Bist_hw.Memory.create ~word_bits:1 ~depth:1 () in
  Bist_hw.Memory.load_sequence_exn m (Tseq.of_strings [ "1" ]);
  let c = Bist_hw.Controller.start m ~n:1 in
  ignore (Bist_hw.Controller.emit_all c);
  Alcotest.check_raises "step after finish"
    (Invalid_argument "Controller.step: already finished") (fun () ->
      ignore (Bist_hw.Controller.step c))

(* Recovery soundness: a session hit by a random *transient* fault but
   defended by the hardened policy applies exactly the clean session's
   test — same expanded stream of length 8·n·|S|, same signature — so
   the paper's coverage guarantee survives the fault. *)
let test_recovery_preserves_session =
  Testutil.qcheck
    (QCheck.Test.make ~name:"injected-but-recovered session == clean session"
       ~count:60
       QCheck.(triple (int_range 1 6) (int_range 1 3) int)
       (fun (len, n, fseed) ->
         let circuit = Bist_bench.S27.circuit () in
         let width = Bist_circuit.Netlist.num_inputs circuit in
         let rng = Bist_util.Rng.create fseed in
         let s = Tseq.random_binary rng ~width ~length:len in
         let misr_width =
           Bist_hw.Misr.reg_width
             (Bist_hw.Misr.create ~width:(Bist_circuit.Netlist.num_outputs circuit))
         in
         let fault =
           (* redraw until the fault is transient: permanent faults are
              *supposed* to end degraded, not recovered *)
           let rec transient () =
             let f =
               Bist_inject.Fault_gen.random_fault rng ~word_bits:width
                 ~sequences:[ s ] ~misr_width
             in
             if Bist_inject.Fault_gen.is_permanent f then transient () else f
           in
           transient ()
         in
         let defense = Bist_hw.Session.hardened in
         let sync_rng = Bist_util.Rng.create 4 in
         let sync = Bist_hw.Sync.find_sequence ~rng:sync_rng circuit in
         let clean =
           Bist_hw.Session.run_exn ?sync ~defense ~capture:true ~n circuit [ s ]
         in
         let injector = Bist_hw.Injector.create fault in
         let faulty =
           Bist_hw.Session.run_exn ?sync ~defense ~injector ~capture:true ~n
             circuit [ s ]
         in
         let c = List.hd clean.Bist_hw.Session.per_sequence in
         let f = List.hd faulty.Bist_hw.Session.per_sequence in
         faulty.Bist_hw.Session.complete
         && f.applied_length = 8 * n * Tseq.length s
         && f.applied_length = c.applied_length
         && f.signature = c.signature
         && (match (c.applied, f.applied) with
            | Some ca, Some fa -> Tseq.equal ca fa
            | _ -> false)))

(* Parser fuzz: arbitrary junk must raise a clean error, never crash. *)
let test_parser_fuzz =
  Testutil.qcheck
    (QCheck.Test.make ~name:"parser never crashes on junk" ~count:300
       QCheck.(string_gen_of_size (Gen.int_range 0 60)
                 (Gen.oneofl [ 'a'; 'G'; '0'; '('; ')'; ','; '='; ' '; '\n'; '#'; 'D'; 'F' ]))
       (fun text ->
         match Bist_circuit.Bench_parser.parse_string ~name:"fuzz" text with
         | _ -> true
         | exception Bist_circuit.Bench_parser.Parse_error _ -> true
         | exception Failure _ -> true))

(* Fault_table agrees with the raw simulator outcome. *)
let test_fault_table_consistent () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let t0 = Bist_bench.S27.t0 () in
  let table = Bist_fault.Fault_table.compute universe t0 in
  let outcome = Fsim.run universe t0 in
  Universe.iter
    (fun id _ ->
      let expected =
        if outcome.Fsim.det_time.(id) >= 0 then Some outcome.Fsim.det_time.(id)
        else None
      in
      Alcotest.(check (option int)) "udet" expected (Bist_fault.Fault_table.udet table id))
    universe

(* Edge cases. *)

let test_expand_empty () =
  let empty = Tseq.empty 3 in
  Alcotest.(check int) "expand empty is empty" 0
    (Tseq.length (Ops.expand ~n:4 empty))

let test_expand_single_vector () =
  let s = Tseq.of_strings [ "101" ] in
  let exp = Ops.expand ~n:1 s in
  Alcotest.(check int) "length 8" 8 (Tseq.length exp);
  (* S, ~S, S<<1, ~S<<1, then the reverse of those four *)
  Alcotest.(check (list string)) "vectors"
    [ "101"; "010"; "011"; "100"; "100"; "011"; "010"; "101" ]
    (Tseq.to_strings exp)

let test_table_separator () =
  let module At = Bist_util.Ascii_table in
  let t = At.create ~headers:[ ("h", At.Left) ] in
  At.add_row t [ "a" ];
  At.add_separator t;
  At.add_row t [ "b" ];
  let lines = String.split_on_char '\n' (At.render t) in
  Alcotest.(check int) "6 lines (incl. trailing)" 6 (List.length lines)

let test_bench_file_roundtrip () =
  let c = Bist_bench.S27.circuit () in
  let path = Filename.temp_file "bist" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bist_circuit.Bench_writer.to_file c path;
      let c2 = Bist_circuit.Bench_parser.parse_file path in
      Alcotest.(check string) "same name (from file basename)"
        (Filename.remove_extension (Filename.basename path))
        (Bist_circuit.Netlist.circuit_name c2);
      Alcotest.(check int) "same size" (Bist_circuit.Netlist.size c)
        (Bist_circuit.Netlist.size c2))

let test_area_minimum () =
  let a = Bist_hw.Area.estimate ~num_inputs:1 ~max_seq_len:1 ~n:1 () in
  Alcotest.(check int) "1 memory bit" 1 a.Bist_hw.Area.memory_bits;
  Alcotest.(check bool) "counters nonzero" true (a.address_counter_bits >= 1)

let test_robustness_spread () =
  let entry =
    { Bist_bench.Registry.name = "mini"; paper_name = "s298";
      circuit = Bist_bench.Teaching.counter3; scaled = false }
  in
  let r = Bist_harness.Experiment.robustness ~seeds:[ 1; 2 ] entry in
  Alcotest.(check bool) "verified under both seeds" true
    r.Bist_harness.Experiment.always_verified;
  Alcotest.(check bool) "mean within [min,max]" true
    (r.ratio_total.Bist_harness.Experiment.min
       <= r.ratio_total.Bist_harness.Experiment.mean
    && r.ratio_total.mean <= r.ratio_total.max)

let suite_edge =
  [
    Alcotest.test_case "expand empty" `Quick test_expand_empty;
    Alcotest.test_case "expand single vector" `Quick test_expand_single_vector;
    Alcotest.test_case "table separator" `Quick test_table_separator;
    Alcotest.test_case "bench file roundtrip" `Quick test_bench_file_roundtrip;
    Alcotest.test_case "area minimum" `Quick test_area_minimum;
    Alcotest.test_case "robustness spread" `Slow test_robustness_spread;
  ]

let suite =
  suite_edge
  @ [
    test_expansion_detects_superset;
    test_partial_expansion_detects_superset;
    test_scheme_sound_on_random_circuits;
    Alcotest.test_case "windows inside T0" `Quick test_windows_inside_t0;
    Alcotest.test_case "snapshot restore" `Quick test_snapshot_restore;
    Alcotest.test_case "state diff count" `Quick test_state_diff_count;
    Alcotest.test_case "controller finished error" `Quick test_controller_finished_error;
    test_recovery_preserves_session;
    test_parser_fuzz;
    Alcotest.test_case "fault table consistent" `Quick test_fault_table_consistent;
  ]
