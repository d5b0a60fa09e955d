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
   mid-pass, once from its own baseline simulation and once from the
   engine's closing one. *)
let test_compaction_matches_full_resim name () =
  let entry = Option.get (Bist_bench.Registry.find name) in
  let circuit = entry.circuit () in
  let universe = Universe.collapsed circuit in
  let config = { (Engine.default_config circuit) with Engine.max_length = 160 } in
  let t0, _, baseline =
    Engine.generate_with_coverage ~config ~rng:(Bist_util.Rng.create 2026) universe
  in
  let budget = Bist_harness.Experiment.budget_for circuit in
  List.iter
    (fun (label, initial_block, max_trials) ->
      let ref_seq, ref_stats =
        Full_resim.compact ?initial_block ~max_trials universe t0
      in
      List.iter
        (fun (how, baseline) ->
          let seq, stats = Compaction.compact ?initial_block ~max_trials ?baseline universe t0 in
          Alcotest.(check string)
            (Printf.sprintf "%s, %s: same T0 bytes" label how)
            (Bist_harness.Seq_io.to_string ref_seq)
            (Bist_harness.Seq_io.to_string seq);
          Alcotest.(check bool) (Printf.sprintf "%s, %s: same stats" label how) true
            (ref_stats = stats))
        [ ("own baseline", None); ("engine's baseline", Some baseline) ])
    [ ("experiment budget", None, budget.compaction_trials);
      ("40 trials, block 3", Some 3, 40) ];
  (* The engine's closing simulation is of this universe and this T0. *)
  let rejected what f =
    Alcotest.check_raises what
      (Invalid_argument "Compaction.compact: baseline simulated for another universe or sequence")
      (fun () -> ignore (f () : Tseq.t * Compaction.stats))
  in
  rejected "baseline of another universe" (fun () ->
      Compaction.compact ~max_trials:5 ~baseline (Universe.collapsed circuit) t0);
  rejected "baseline of another sequence" (fun () ->
      Compaction.compact ~max_trials:5 ~baseline universe (Tseq.concat t0 t0))

(* Oracle (b) on random circuits: X-carrying sequences, a random
   initial block, a random trial budget and pool width. *)
let compaction_resim_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"compaction = full resim (random circuits and blocks)" ~count:40
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let width = Bist_circuit.Netlist.num_inputs circuit in
         let t0 =
           Tseq.of_vectors
             (Array.init (len + 8) (fun _ ->
                  Bist_logic.Vector.init width (fun _ ->
                      match Bist_util.Rng.int rng 8 with
                      | 0 -> Bist_logic.Ternary.X
                      | k -> if k land 1 = 0 then Bist_logic.Ternary.Zero else Bist_logic.Ternary.One)))
         in
         let initial_block = 1 + Bist_util.Rng.int rng 8 in
         let max_trials = if Bist_util.Rng.bool rng then max_int else 5 + Bist_util.Rng.int rng 40 in
         let pool = Bist_parallel.Pool.create ~jobs:(1 + Bist_util.Rng.int rng 3) () in
         let ref_seq, ref_stats = Full_resim.compact ~initial_block ~max_trials universe t0 in
         let seq, stats = Compaction.compact ~initial_block ~max_trials ~pool universe t0 in
         Bist_parallel.Pool.shutdown pool;
         (Tseq.equal ref_seq seq && ref_stats = stats)
         || QCheck.Test.fail_reportf "block %d, %d trials: %d vs %d vectors" initial_block
              ref_stats.Compaction.trials (Tseq.length ref_seq) (Tseq.length seq)))

(* The directed search as it ran before it scored a generation in one
   pass, on the oracle kernel: the fault in lane 1 of one Packed_sim,
   the prefix stepped from reset, and each candidate segment scored on
   its own from the restored snapshot as soon as it is built, reading
   the fault-free value of the site from lane 0. The genetic loop and
   its draws from [rng] are copied unchanged. *)
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

(* Oracle (c): the engine as it scored before it kept frontiers. Every
   embedded candidate and every accepted segment after the re-baseline
   is simulated as [t0 ++ seg] from reset, and every directed attempt
   runs the oracle search above from reset through [t0]; the phases and
   the rng draws are copied unchanged. No SAT tail. *)
module Reset_engine = struct
  module Rng = Bist_util.Rng
  module Vector = Bist_logic.Vector
  module Directed = Bist_tgen.Directed

  let random_segment rng ~width ~length ~p_one ~hold =
    let distinct = (length + hold - 1) / hold in
    let vectors = Array.init distinct (fun _ -> Vector.random_weighted rng width ~p_one) in
    Tseq.of_vectors (Array.init length (fun i -> vectors.(i / hold)))

  let candidate (config : Engine.config) rng ~width =
    let p_one = List.nth config.weighted_p (Rng.int rng (List.length config.weighted_p)) in
    let hold = List.nth config.hold_options (Rng.int rng (List.length config.hold_options)) in
    random_segment rng ~width ~length:config.segment_length ~p_one ~hold

  let sample_targets remaining cap =
    let total = Bitset.cardinal remaining in
    if total <= cap then remaining
    else begin
      let sample = Bitset.create (Bitset.capacity remaining) in
      let stride = total / cap in
      let i = ref 0 in
      Bitset.iter
        (fun id ->
          if !i mod stride = 0 then Bitset.add sample id;
          incr i)
        remaining;
      sample
    end

  let generate ~(config : Engine.config) ~rng universe =
    if config.sat_budget > 0 then invalid_arg "Reset_engine: no SAT tail";
    let circuit = Universe.circuit universe in
    let width = Bist_circuit.Netlist.num_inputs circuit in
    let n = Universe.size universe in
    let untestable =
      if config.prescreen then
        (Bist_analyze.Untestable.prescreen_universe universe).Bist_analyze.Untestable.untestable
      else Bitset.create n
    in
    let remaining = Bitset.create n in
    Bitset.fill remaining;
    Bitset.diff_into remaining untestable;
    let t0 = ref (Tseq.empty width) and rounds = ref 0 and accepted = ref 0 in
    let phase_loop ~embed ~patience ~candidates_per_round =
      let round () =
        incr rounds;
        let eval_targets = sample_targets remaining config.sample_cap in
        let best = ref None in
        for _ = 1 to candidates_per_round do
          let seg = candidate config rng ~width in
          let scored = if embed then Tseq.concat !t0 seg else seg in
          let gain =
            Bitset.cardinal (Fsim.run ~targets:eval_targets universe scored).Fsim.detected
          in
          match !best with
          | Some (best_gain, _) when best_gain >= gain -> ()
          | _ -> if gain > 0 then best := Some (gain, seg)
        done;
        match !best with
        | None -> false
        | Some (_, seg) ->
          incr accepted;
          let full = Tseq.concat !t0 seg in
          let o = Fsim.run ~targets:remaining universe (if embed then full else seg) in
          t0 := full;
          Bitset.diff_into remaining o.Fsim.detected;
          true
      in
      let fruitless = ref 0 in
      while
        !fruitless < patience
        && Tseq.length !t0 < config.max_length
        && not (Bitset.is_empty remaining)
      do
        if round () then fruitless := 0 else incr fruitless
      done
    in
    phase_loop ~embed:false ~patience:config.patience
      ~candidates_per_round:config.candidates_per_round;
    let embedded = Fsim.run universe !t0 in
    Bitset.clear remaining;
    Bitset.fill remaining;
    Bitset.diff_into remaining untestable;
    Bitset.diff_into remaining embedded.Fsim.detected;
    phase_loop ~embed:true
      ~patience:(max 4 (config.patience / 2))
      ~candidates_per_round:(max 3 (config.candidates_per_round / 2));
    if config.directed_budget > 0 then begin
      let ids = Array.of_list (Bitset.elements remaining) in
      Directed.order_hardest_first (Bist_analyze.Scoap.compute circuit) universe ids;
      let attempts = ref 0 in
      Array.iter
        (fun id ->
          if
            !attempts < config.directed_budget
            && Bitset.mem remaining id
            && Tseq.length !t0 < config.max_length
          then begin
            incr attempts;
            match
              (Packed_directed.search Directed.default_config ~rng ~prefix:!t0 circuit
                 (Universe.get universe id))
                .Directed.segment
            with
            | None -> ()
            | Some seg ->
              incr accepted;
              let full = Tseq.concat !t0 seg in
              let o = Fsim.run ~targets:remaining universe full in
              t0 := full;
              Bitset.diff_into remaining o.Fsim.detected
          end)
        ids
    end;
    let final = Fsim.run universe !t0 in
    ( !t0,
      {
        Engine.rounds = !rounds;
        segments_accepted = !accepted;
        detected = Bitset.cardinal final.Fsim.detected;
        total_faults = n;
        statically_untestable = Bitset.cardinal untestable;
        sat_proved = 0;
        sat_tests = 0;
      } )
end

(* The harness configuration, one whose short segments and impatient
   standalone phase leave most of the work, and most accepted segments,
   to the embedded phase and the directed tail, and one that scores
   candidates on a 20-fault sample. *)
let test_engine_matches_reset_scoring name () =
  let entry = Option.get (Bist_bench.Registry.find name) in
  let circuit = entry.circuit () in
  let universe = Universe.collapsed circuit in
  let harness =
    Bist_harness.Experiment.tgen_config circuit (Bist_harness.Experiment.budget_for circuit)
  in
  List.iter
    (fun (label, config) ->
      let ref_t0, ref_stats =
        Reset_engine.generate ~config ~rng:(Bist_util.Rng.create 2026) universe
      in
      let t0, stats = Engine.generate ~config ~rng:(Bist_util.Rng.create 2026) universe in
      Alcotest.(check string) (label ^ ": same T0 bytes")
        (Bist_harness.Seq_io.to_string ref_t0) (Bist_harness.Seq_io.to_string t0);
      Alcotest.(check bool) (label ^ ": same stats") true (ref_stats = stats))
    [ ("harness", harness);
      ("short segments",
       { harness with Engine.patience = 1; segment_length = 6; max_length = 300 });
      ("sampled", { harness with Engine.sample_cap = 20; max_length = 300 }) ]

let engine_reset_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"engine = from-reset scoring (random circuits)" ~count:20
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let config =
           { (Engine.default_config circuit) with
             Engine.patience = 1 + (len mod 3);
             segment_length = 2 + (len mod 7);
             max_length = 120;
             directed_budget = len mod 4;
             sample_cap = (if len mod 2 = 0 then 8 + len else 1500) }
         in
         let ref_t0, ref_stats =
           Reset_engine.generate ~config ~rng:(Bist_util.Rng.create sseed) universe
         in
         let pool = Bist_parallel.Pool.create ~jobs:(1 + (sseed mod 3)) () in
         let t0, stats = Engine.generate ~config ~pool ~rng:(Bist_util.Rng.create sseed) universe in
         Bist_parallel.Pool.shutdown pool;
         (Tseq.equal ref_t0 t0 && ref_stats = stats)
         || QCheck.Test.fail_reportf "T0 %d vs %d vectors" (Tseq.length ref_t0) (Tseq.length t0)))

(* Oracle (d): the frontiers are really used. The engine starts embedded
   candidates from its end-of-T0 frontier on x526, and compaction
   retires rejoining faults on x641. *)
let test_frontiers_used () =
  let counter obs name =
    Option.value ~default:0
      (Bist_obs.Metrics.counter (Option.get (Bist_obs.Obs.metrics obs)) name)
  in
  let universe name =
    Universe.collapsed ((Option.get (Bist_bench.Registry.find name)).circuit ())
  in
  let obs = Bist_obs.Obs.create () in
  ignore (Engine.generate ~obs ~rng:(Bist_util.Rng.create 2026) (universe "x526") : Tseq.t * Engine.stats);
  Alcotest.(check bool) "x526 engine loads lanes from a frontier" true
    (counter obs "fsim.loaded_lanes" > 0);
  let u = universe "x641" in
  let config = { (Engine.default_config (Universe.circuit u)) with Engine.max_length = 300 } in
  let t0, _ = Engine.generate ~config ~rng:(Bist_util.Rng.create 2026) u in
  let obs = Bist_obs.Obs.create () in
  ignore (Compaction.compact ~obs ~max_trials:150 u t0 : Tseq.t * Compaction.stats);
  Alcotest.(check bool)
    (Printf.sprintf "x641 compaction: %d rejoined" (counter obs "compaction.rejoined"))
    true
    (counter obs "compaction.rejoined" > 0)

(* The frontier store stays within the fault-free trace of the sequence
   on an x5378-sized universe, where the cap binds: a 64-vector T0,
   blocks of 8, so the first pass has boundaries 8, 16, ..., 56, and
   storing all of them would take more than the trace. *)
let test_frontier_store_cap () =
  let circuit = (Option.get (Bist_bench.Registry.find "x5378")).circuit () in
  let universe = Universe.collapsed circuit in
  let t0 =
    Tseq.random_binary (Bist_util.Rng.create 5)
      ~width:(Bist_circuit.Netlist.num_inputs circuit) ~length:64
  in
  let det = (Fsim.run universe t0).Fsim.det_time in
  let held p = Array.fold_left (fun a d -> if d >= p then a + 1 else a) 0 det in
  let all_boundaries =
    List.fold_left (fun a p -> a + Fsim.frontier_cost universe ~faults:(held p)) 0
      (List.init 7 (fun j -> 8 * (j + 1)))
  in
  let cap = 64 * Bist_circuit.Netlist.size circuit in
  let obs = Bist_obs.Obs.create () in
  ignore
    (Compaction.compact ~obs ~initial_block:8 ~max_trials:12 universe t0
      : Tseq.t * Compaction.stats);
  let peak =
    Bist_obs.Metrics.gauge (Option.get (Bist_obs.Obs.metrics obs)) "compaction.frontier_bytes"
    |> Option.get |> int_of_float
  in
  Alcotest.(check bool)
    (Printf.sprintf "all boundaries (%d bytes) exceed the trace (%d)" all_boundaries cap)
    true (all_boundaries > cap);
  Alcotest.(check bool)
    (Printf.sprintf "store peak %d bytes within the trace (%d), not empty" peak cap)
    true
    (peak > 0 && peak <= cap)

(* [Directed.search] from the end-of-[t0] frontier against the oracle
   copy run from reset through [t0], for fault [id] (undetected by [t0])
   under [config], both from a generator seeded with [seed]: the segment,
   the evaluations, the best fitness and the generator's next draw, as
   the differences found. *)
let directed_differences circuit universe t0 frontier id config seed =
  let fault = Universe.get universe id in
  let run search =
    let rng = Bist_util.Rng.create seed in
    let outcome = search rng in
    (outcome, Bist_util.Rng.int rng 1_000_000)
  in
  let want, want_next =
    run (fun rng -> Packed_directed.search config ~rng ~prefix:t0 circuit fault)
  in
  let got, got_next =
    run (fun rng ->
        Bist_tgen.Directed.search ~config ~rng ~good:(Fsim.frontier_good frontier)
          ~faulty:(Fsim.frontier_state frontier id) circuit fault)
  in
  List.filter_map
    (fun (what, same) -> if same then None else Some what)
    [ ("segment", Option.equal Tseq.equal want.Bist_tgen.Directed.segment got.segment);
      ("evaluations", want.evaluations = got.evaluations);
      ("best fitness", want.best_fitness = got.best_fitness);
      ("next draw", want_next = got_next) ]

let small_directed =
  { Bist_tgen.Directed.population = 5; generations = 4; segment_length = 7; mutation_rate = 0.2 }

(* The directed search against the oracle copy on the four SCOAP-hardest
   faults a capped tgen T0 leaves undetected, with the T0 as the prefix,
   at the default configuration and at a small one. The generator's next
   draw must agree too, so both consumed the same randomness. s27's T0
   detects every fault, so there the prefix is its first [keep]
   vectors. *)
let test_directed_matches_packed ?keep circuit () =
  let universe = Universe.collapsed circuit in
  let name = Bist_circuit.Netlist.circuit_name circuit in
  let config = { (Engine.default_config circuit) with Engine.max_length = 160 } in
  let t0, _ = Engine.generate ~config ~rng:(Bist_util.Rng.create 2026) universe in
  let t0 =
    match keep with Some k -> Tseq.sub t0 ~lo:0 ~hi:(k - 1) | None -> t0
  in
  let o = Fsim.run ~record:[| Tseq.length t0 |] universe t0 in
  let survivors =
    Array.of_list
      (List.filter
         (fun id -> not (Bitset.mem o.Fsim.detected id))
         (List.init (Universe.size universe) Fun.id))
  in
  Bist_tgen.Directed.order_hardest_first (Bist_analyze.Scoap.compute circuit)
    universe survivors;
  let targets = Array.sub survivors 0 (min 4 (Array.length survivors)) in
  Alcotest.(check bool) (name ^ ": has survivors") true (Array.length targets > 0);
  Array.iter
    (fun id ->
      List.iter
        (fun (label, dconfig) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s (%s)" name
               (Bist_fault.Fault.name circuit (Universe.get universe id)) label)
            []
            (directed_differences circuit universe t0 o.Fsim.frontiers.(0) id dconfig (1000 + id)))
        [ ("default", Bist_tgen.Directed.default_config); ("small", small_directed) ])
    targets

(* Random circuits, prefixes with X inputs (their end states hold X as
   well) and configurations: population 1 to 12, or up to 40 for one
   length in five, so a generation may have no children or more than
   one batch holds; 0 to 4 generations; segments of 1 to 12 vectors.
   Up to six faults the prefix leaves undetected are searched for. *)
let directed_random_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"directed = packed search (random circuits)" ~count:25
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Bist_util.Rng.create sseed in
         let width = Bist_circuit.Netlist.num_inputs circuit in
         let t0 =
           Tseq.of_vectors
             (Array.init (len / 2) (fun _ ->
                  Bist_logic.Vector.init width (fun _ ->
                      match Bist_util.Rng.int rng 6 with
                      | 0 -> Bist_logic.Ternary.X
                      | k -> Bist_logic.Ternary.of_bool (k land 1 = 0))))
         in
         let config =
           { Bist_tgen.Directed.population = 1 + Bist_util.Rng.int rng (if len mod 5 = 0 then 40 else 12);
             generations = Bist_util.Rng.int rng 5;
             segment_length = 1 + Bist_util.Rng.int rng 12;
             mutation_rate = 0.1 }
         in
         let o = Fsim.run ~record:[| Tseq.length t0 |] universe t0 in
         let bad = ref [] in
         let searched = ref 0 in
         for id = 0 to Universe.size universe - 1 do
           if !searched < 6 && not (Bitset.mem o.Fsim.detected id) then begin
             incr searched;
             List.iter
               (fun d -> bad := Printf.sprintf "fault %d: %s" id d :: !bad)
               (directed_differences circuit universe t0 o.Fsim.frontiers.(0) id config (sseed + id))
           end
         done;
         !bad = []
         || QCheck.Test.fail_reportf "population %d, %d generations, %d vectors: %s"
              config.population config.generations config.segment_length
              (String.concat ", " (List.rev !bad))))

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
    compaction_resim_property;
    engine_reset_property;
    Alcotest.test_case "frontiers are used (x526 engine, x641 compaction)" `Quick
      test_frontiers_used;
    Alcotest.test_case "frontier store within the trace (x5378)" `Quick
      test_frontier_store_cap;
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "compaction = full resim (%s)" name)
          `Quick
          (test_compaction_matches_full_resim name))
      [ "s27"; "x298"; "x526"; "x820"; "x1488"; "x641" ]
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "engine = from-reset scoring (%s)" name)
          `Quick
          (test_engine_matches_reset_scoring name))
      [ "s27"; "x298"; "x526"; "x820"; "x1488"; "x641" ]
  @ List.map
      (fun (name, keep) ->
        Alcotest.test_case
          (Printf.sprintf "directed = packed search (%s)" name)
          `Quick
          (fun () ->
            test_directed_matches_packed ?keep
              ((Option.get (Bist_bench.Registry.find name)).circuit ())
              ()))
      [ ("s27", Some 2); ("x298", None); ("x526", None) ]
  @ List.map
      (fun file ->
        Alcotest.test_case
          (Printf.sprintf "directed = packed search (%s)" file)
          `Quick
          (fun () ->
            test_directed_matches_packed
              (Bist_circuit.Blif_parser.parse_file (Testutil.corpus_path file))
              ()))
      [ "k12a.blif"; "s27_yosys.blif"; "counter3.blif" ]
  @ [ directed_random_property ]
  @ [
    Alcotest.test_case "synth matches profile" `Quick test_synth_matches_profile;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth observable" `Quick test_synth_everything_observable;
    test_synth_roundtrips_through_bench;
    Alcotest.test_case "registry" `Quick test_registry;
  ]
