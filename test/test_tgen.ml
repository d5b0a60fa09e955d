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

(* The directed search as it ran before it moved onto Ppsfp, on the
   oracle kernel: the fault in lane 1 of one Packed_sim, the prefix
   stepped once, and each candidate segment scored from the restored
   snapshot, reading the fault-free value of the site from lane 0. The
   genetic loop and its draws from [rng] are copied unchanged. *)
module Packed_directed = struct
  module Vector = Bist_logic.Vector
  module T = Bist_logic.Ternary
  module Rng = Bist_util.Rng
  module Netlist = Bist_circuit.Netlist
  module Fault = Bist_fault.Fault
  module Directed = Bist_tgen.Directed

  let detected_bonus = 1_000_000

  let excitation_node (fault : Fault.t) circuit =
    match fault.site with
    | Fault.Output n -> n
    | Fault.Pin { gate; pin } -> (Netlist.fanins circuit gate).(pin)

  let fitness sim ~snapshot ~site ~stuck segment =
    Packed_sim.restore_state sim snapshot;
    let excitations = ref 0 in
    let max_state_div = ref 0 in
    let detected_at = ref (-1) in
    let len = Tseq.length segment in
    let u = ref 0 in
    while !detected_at < 0 && !u < len do
      Packed_sim.step sim (Tseq.get segment !u);
      if Packed_sim.po_diff_lanes sim land 0b10 <> 0 then detected_at := !u;
      let good = Packed.get (Packed_sim.node_value sim site) 0 in
      if T.is_binary good && not (T.equal good stuck) then incr excitations;
      let div = Packed_sim.state_diff_count sim ~lane:1 in
      if div > !max_state_div then max_state_div := div;
      incr u
    done;
    (if !detected_at >= 0 then detected_bonus - !detected_at else 0)
    + (100 * !max_state_div) + !excitations

  let random_segment rng ~width ~length =
    Tseq.of_vectors (Array.init length (fun _ -> Vector.random_binary rng width))

  let mutate rng ~rate segment =
    let width = Tseq.width segment in
    Tseq.of_vectors
      (Array.map
         (fun v ->
           let flipped = ref v in
           for i = 0 to width - 1 do
             if Rng.bernoulli rng rate then
               flipped := Vector.set !flipped i (T.not_ (Vector.get !flipped i))
           done;
           !flipped)
         (Tseq.to_array segment))

  let crossover rng a b =
    let len = min (Tseq.length a) (Tseq.length b) in
    if len < 2 then a
    else begin
      let cut = 1 + Rng.int rng (len - 1) in
      Tseq.concat (Tseq.sub a ~lo:0 ~hi:(cut - 1)) (Tseq.sub b ~lo:cut ~hi:(len - 1))
    end

  let search (config : Directed.config) ~rng ~prefix circuit (fault : Fault.t) =
    let width = Netlist.num_inputs circuit in
    let sim = Packed_sim.create circuit in
    (match fault with
    | { site = Fault.Output n; stuck } ->
      Packed_sim.add_output_force sim n ~mask:0b10 stuck
    | { site = Fault.Pin { gate; pin }; stuck } ->
      Packed_sim.add_pin_force sim ~gate ~pin ~mask:0b10 stuck);
    Packed_sim.reset sim;
    Tseq.iter (fun v -> Packed_sim.step sim v) prefix;
    let snapshot = Packed_sim.save_state sim in
    let site = excitation_node fault circuit in
    let evaluations = ref 0 in
    let eval segment =
      incr evaluations;
      fitness sim ~snapshot ~site ~stuck:fault.stuck segment
    in
    let population =
      ref
        (Array.init config.population (fun _ ->
             let s = random_segment rng ~width ~length:config.segment_length in
             (eval s, s)))
    in
    let best () =
      Array.fold_left
        (fun acc (f, s) ->
          match acc with Some (bf, _) when bf >= f -> acc | _ -> Some (f, s))
        None !population
      |> Option.get
    in
    let generation = ref 0 in
    while !generation < config.generations && fst (best ()) < detected_bonus do
      incr generation;
      let sorted =
        Array.of_list
          (List.sort (fun (a, _) (b, _) -> Int.compare b a) (Array.to_list !population))
      in
      let elite = Array.sub sorted 0 (max 1 (config.population / 4)) in
      population :=
        Array.init config.population (fun i ->
            if i < Array.length elite then elite.(i)
            else begin
              let parent_a = snd (Rng.choose rng elite) in
              let child =
                match Rng.int rng 3 with
                | 0 -> mutate rng ~rate:config.mutation_rate parent_a
                | 1 -> crossover rng parent_a (snd (Rng.choose rng sorted))
                | _ -> random_segment rng ~width ~length:config.segment_length
              in
              (eval child, child)
            end)
    done;
    let best_fitness, best_segment = best () in
    {
      Directed.segment =
        (if best_fitness >= detected_bonus - Tseq.length best_segment then
           Some best_segment
         else None);
      evaluations = !evaluations;
      best_fitness;
    }
end

(* [Directed.search] against the oracle copy on the four SCOAP-hardest
   faults a capped tgen T0 leaves undetected, with the T0 as the prefix,
   at the default configuration and at a small one. The generator's next
   draw must agree too, so both consumed the same randomness. s27's T0
   detects every fault, so there the prefix is its first [keep] vectors. *)
let test_directed_matches_packed ?keep name () =
  let circuit = (Option.get (Bist_bench.Registry.find name)).circuit () in
  let universe = Universe.collapsed circuit in
  let config = { (Engine.default_config circuit) with Engine.max_length = 160 } in
  let t0, _ = Engine.generate ~config ~rng:(Bist_util.Rng.create 2026) universe in
  let t0 =
    match keep with Some k -> Tseq.sub t0 ~lo:0 ~hi:(k - 1) | None -> t0
  in
  let detected = (Fsim.run universe t0).Fsim.detected in
  let survivors =
    Array.of_list
      (List.filter
         (fun id -> not (Bitset.mem detected id))
         (List.init (Universe.size universe) Fun.id))
  in
  Bist_tgen.Directed.order_hardest_first (Bist_analyze.Scoap.compute circuit)
    universe survivors;
  let targets = Array.sub survivors 0 (min 4 (Array.length survivors)) in
  Alcotest.(check bool) (name ^ ": has survivors") true (Array.length targets > 0);
  let small =
    { Bist_tgen.Directed.population = 5; generations = 4; segment_length = 7;
      mutation_rate = 0.2 }
  in
  Array.iter
    (fun id ->
      let fault = Universe.get universe id in
      List.iter
        (fun (label, dconfig) ->
          let run search =
            let rng = Bist_util.Rng.create (1000 + id) in
            let outcome = search rng in
            (outcome, Bist_util.Rng.int rng 1_000_000)
          in
          let want, want_next =
            run (fun rng -> Packed_directed.search dconfig ~rng ~prefix:t0 circuit fault)
          in
          let got, got_next =
            run (fun rng ->
                Bist_tgen.Directed.search ~config:dconfig ~rng ~prefix:t0 circuit fault)
          in
          let what =
            Printf.sprintf "%s %s (%s)" name (Bist_fault.Fault.name circuit fault) label
          in
          Alcotest.(check (option Testutil.tseq_testable))
            (what ^ ": segment") want.Bist_tgen.Directed.segment got.segment;
          Alcotest.(check int) (what ^ ": evaluations") want.evaluations got.evaluations;
          Alcotest.(check int) (what ^ ": best fitness") want.best_fitness got.best_fitness;
          Alcotest.(check int) (what ^ ": next draw") want_next got_next)
        [ ("default", Bist_tgen.Directed.default_config); ("small", small) ])
    targets

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
  @ List.map
      (fun (name, keep) ->
        Alcotest.test_case
          (Printf.sprintf "directed = packed search (%s)" name)
          `Quick
          (test_directed_matches_packed ?keep name))
      [ ("s27", Some 2); ("x298", None); ("x526", None) ]
  @ [
    Alcotest.test_case "synth matches profile" `Quick test_synth_matches_profile;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth observable" `Quick test_synth_everything_observable;
    test_synth_roundtrips_through_bench;
    Alcotest.test_case "registry" `Quick test_registry;
  ]
