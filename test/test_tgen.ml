(* Suites for Bist_tgen: the T0 engine and its static compaction, plus
   the synthetic benchmark generator and registry they run against. *)

module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Engine = Bist_tgen.Engine
module Compaction = Bist_tgen.Compaction

let counter_universe () = Universe.collapsed (Bist_bench.Teaching.counter3 ())

let test_engine_detects_something () =
  let universe = counter_universe () in
  let rng = Bist_util.Rng.create 11 in
  let t0, stats = Engine.generate ~rng universe in
  Alcotest.(check bool) "nonempty" true (Tseq.length t0 > 0);
  Alcotest.(check bool) "detects most counter faults" true
    (float_of_int stats.Engine.detected
     >= 0.7 *. float_of_int stats.total_faults);
  (* stats must agree with an independent fault simulation *)
  let check = Fsim.run universe t0 in
  Alcotest.(check int) "stats consistent"
    (Bitset.cardinal check.Fsim.detected)
    stats.detected

let test_engine_deterministic () =
  let universe = counter_universe () in
  let gen () =
    let rng = Bist_util.Rng.create 11 in
    fst (Engine.generate ~rng universe)
  in
  Testutil.check_seq "same seed, same T0" (gen ()) (gen ())

let test_engine_respects_max_length () =
  let universe = counter_universe () in
  let circuit = Bist_bench.Teaching.counter3 () in
  let config = { (Engine.default_config circuit) with Engine.max_length = 40 } in
  let rng = Bist_util.Rng.create 11 in
  let t0, _ = Engine.generate ~config ~rng universe in
  (* one segment may straddle the cap *)
  Alcotest.(check bool) "capped" true
    (Tseq.length t0 <= 40 + config.Engine.segment_length)

let test_compaction_preserves_coverage () =
  let universe = counter_universe () in
  let rng = Bist_util.Rng.create 11 in
  let t0, _ = Engine.generate ~rng universe in
  let before = (Fsim.run universe t0).Fsim.detected in
  let t0', stats = Compaction.compact universe t0 in
  let after = (Fsim.run universe t0').Fsim.detected in
  Alcotest.(check bool) "coverage superset" true (Bitset.subset before after);
  Alcotest.(check bool) "not longer" true (Tseq.length t0' <= Tseq.length t0);
  Alcotest.(check int) "stats lengths" (Tseq.length t0) stats.Compaction.initial_length;
  Alcotest.(check int) "stats final" (Tseq.length t0') stats.final_length

let test_compaction_budget () =
  let universe = counter_universe () in
  let rng = Bist_util.Rng.create 11 in
  let t0, _ = Engine.generate ~rng universe in
  let _, stats = Compaction.compact ~max_trials:5 universe t0 in
  Alcotest.(check bool) "trial budget respected" true (stats.Compaction.trials <= 5)

let test_compaction_idempotent_coverage =
  Testutil.qcheck
    (QCheck.Test.make ~name:"compaction sound on random circuits" ~count:10
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let t0 =
           Tseq.random_binary rng
             ~width:(Bist_circuit.Netlist.num_inputs circuit)
             ~length:(len + 5)
         in
         let before = (Fsim.run universe t0).Fsim.detected in
         let t0', _ = Compaction.compact universe t0 in
         Bitset.subset before (Fsim.run universe t0').Fsim.detected))

(* The block-omission loop as it was before compaction tracked detection
   times: every trial re-simulates the whole must-detect set, behind the
   same 800-fault sampled pre-filter. [Compaction.compact] must match it
   trial for trial. *)
module Full_resim = struct
  let sample_of set cap =
    let total = Bitset.cardinal set in
    if total <= cap then set
    else begin
      let sample = Bitset.create (Bitset.capacity set) in
      let stride = total / cap in
      let i = ref 0 in
      Bitset.iter
        (fun id ->
          if !i mod stride = 0 then Bitset.add sample id;
          incr i)
        set;
      sample
    end

  let remove_block seq ~start ~len =
    let n = Tseq.length seq in
    let stop = min n (start + len) in
    if start = 0 then
      if stop >= n then Tseq.empty (Tseq.width seq)
      else Tseq.sub seq ~lo:stop ~hi:(n - 1)
    else if stop >= n then Tseq.sub seq ~lo:0 ~hi:(start - 1)
    else
      Tseq.concat (Tseq.sub seq ~lo:0 ~hi:(start - 1)) (Tseq.sub seq ~lo:stop ~hi:(n - 1))

  let compact ?initial_block ?(max_trials = max_int) universe seq =
    let detected ?targets s = (Fsim.run ?targets universe s).Fsim.detected in
    let must_detect = detected seq in
    let must_sample = sample_of must_detect 800 in
    let keeps candidate =
      Bitset.subset must_sample (detected ~targets:must_sample candidate)
      && Bitset.subset must_detect (detected ~targets:must_detect candidate)
    in
    let initial_length = Tseq.length seq in
    let current = ref seq and trials = ref 0 and accepted = ref 0 in
    let block =
      ref
        (match initial_block with
        | Some b -> max 1 b
        | None -> max 1 (initial_length / 8))
    in
    let start = ref (initial_length - !block) in
    while !block >= 1 && !trials < max_trials do
      while !start >= 0 && !trials < max_trials do
        let candidate = remove_block !current ~start:!start ~len:!block in
        incr trials;
        if Tseq.length candidate > 0 && keeps candidate then begin
          incr accepted;
          current := candidate
        end;
        start := !start - !block
      done;
      block := if !block = 1 then 0 else !block / 2;
      if !block >= 1 then start := Tseq.length !current - !block
    done;
    ( !current,
      { Compaction.trials = !trials; accepted = !accepted; initial_length;
        final_length = Tseq.length !current } )
end

(* A tgen T0 capped at 160 vectors (the oracle re-simulates every
   must-detect fault on every trial), compacted at the circuit's
   experiment budget and at a small block with a budget that ends
   mid-pass. *)
let test_compaction_matches_full_resim name () =
  let entry = Option.get (Bist_bench.Registry.find name) in
  let circuit = entry.circuit () in
  let universe = Universe.collapsed circuit in
  let config = { (Engine.default_config circuit) with Engine.max_length = 160 } in
  let t0, _ = Engine.generate ~config ~rng:(Bist_util.Rng.create 2026) universe in
  let budget = Bist_harness.Experiment.budget_for circuit in
  List.iter
    (fun (label, initial_block, max_trials) ->
      let ref_seq, ref_stats =
        Full_resim.compact ?initial_block ~max_trials universe t0
      in
      let seq, stats = Compaction.compact ?initial_block ~max_trials universe t0 in
      Alcotest.(check string)
        (label ^ ": same T0 bytes")
        (Bist_harness.Seq_io.to_string ref_seq)
        (Bist_harness.Seq_io.to_string seq);
      Alcotest.(check bool) (label ^ ": same stats") true (ref_stats = stats))
    [ ("experiment budget", None, budget.compaction_trials);
      ("40 trials, block 3", Some 3, 40) ]

(* Synth / registry *)

let test_synth_matches_profile () =
  let p =
    { Bist_bench.Synth.name = "prof"; num_inputs = 5; num_outputs = 4;
      num_ffs = 6; num_gates = 60; sync_fraction = 0.8; seed = 77;
      style = Bist_bench.Synth.Random }
  in
  let c = Bist_bench.Synth.generate p in
  Alcotest.(check int) "PIs exact" 5 (Bist_circuit.Netlist.num_inputs c);
  Alcotest.(check int) "POs exact" 4 (Bist_circuit.Netlist.num_outputs c);
  Alcotest.(check int) "FFs exact" 6 (Bist_circuit.Netlist.num_dffs c);
  let gates = Bist_circuit.Netlist.num_gates c in
  Alcotest.(check bool) "gate count near target" true
    (gates >= 40 && gates <= 90)

let test_synth_deterministic () =
  let p = Testutil.small_profile 5 in
  let a = Bist_bench.Synth.generate p and b = Bist_bench.Synth.generate p in
  Alcotest.(check string) "same netlist"
    (Bist_circuit.Bench_writer.to_string a)
    (Bist_circuit.Bench_writer.to_string b)

let test_synth_everything_observable () =
  (* No dangling combinational gate: every non-PO node drives something. *)
  let c = Testutil.small_circuit 9 in
  for n = 0 to Bist_circuit.Netlist.size c - 1 do
    if Bist_circuit.Netlist.kind c n <> Bist_circuit.Gate.Input then
      Alcotest.(check bool)
        (Printf.sprintf "node %s observable" (Bist_circuit.Netlist.name c n))
        true
        (Bist_circuit.Netlist.fanout_count c n > 0)
  done

let test_synth_roundtrips_through_bench =
  Testutil.qcheck
    (QCheck.Test.make ~name:"synthetic circuits roundtrip through .bench" ~count:20
       QCheck.(int_range 0 200)
       (fun seed ->
         let c = Testutil.small_circuit seed in
         let text = Bist_circuit.Bench_writer.to_string c in
         let c2 =
           Bist_circuit.Bench_parser.parse_string
             ~name:(Bist_circuit.Netlist.circuit_name c)
             text
         in
         Bist_circuit.Bench_writer.to_string c2 = text))

let test_registry () =
  Alcotest.(check int) "suite size" 12
    (List.length (Bist_bench.Registry.evaluation_suite ()));
  Alcotest.(check bool) "find by paper name" true
    (Option.is_some (Bist_bench.Registry.find "s298"));
  Alcotest.(check bool) "find by our name" true
    (Option.is_some (Bist_bench.Registry.find "x298"));
  Alcotest.(check bool) "unknown" true (Bist_bench.Registry.find "zzz" = None);
  (* every registry circuit builds and validates *)
  List.iter
    (fun (e : Bist_bench.Registry.entry) ->
      if not e.scaled then begin
        let c = e.circuit () in
        Alcotest.(check bool) (e.name ^ " nonempty") true
          (Bist_circuit.Netlist.num_gates c > 0)
      end)
    (List.filteri (fun i _ -> i < 6) (Bist_bench.Registry.evaluation_suite ()))

let suite =
  [
    Alcotest.test_case "engine detects" `Quick test_engine_detects_something;
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine max length" `Quick test_engine_respects_max_length;
    Alcotest.test_case "compaction preserves coverage" `Quick
      test_compaction_preserves_coverage;
    Alcotest.test_case "compaction budget" `Quick test_compaction_budget;
    test_compaction_idempotent_coverage;
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "compaction = full resim (%s)" name)
          `Quick
          (test_compaction_matches_full_resim name))
      [ "s27"; "x298"; "x526"; "x820"; "x1488"; "x641" ]
  @ [
    Alcotest.test_case "synth matches profile" `Quick test_synth_matches_profile;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth observable" `Quick test_synth_everything_observable;
    test_synth_roundtrips_through_bench;
    Alcotest.test_case "registry" `Quick test_registry;
  ]
