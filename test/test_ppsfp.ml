(* Differential-oracle suite for the PPSFP fault-simulation core.

   Three independent implementations must produce the same fault table:

   - {!Bist_fault.Fsim.run}, whose kernel is {!Bist_sim.Ppsfp} (shared
     fault-free trace, event-driven levelized evaluation, fault
     dropping);
   - a full-sweep {!Packed_sim} loop over 62-fault groups, local to
     this suite, that never drops a fault and always runs the whole
     sequence ({!Packed_sim} is the test-local oracle kernel);
   - {!Bist_sim.Seq_sim} on a mutated netlist: each fault is compiled
     into the circuit structurally (stem stuck-at becomes a constant
     driver, a fanout-branch stuck-at rewires one consumer pin to a
     constant node) and the scalar simulator's primary outputs are
     compared against the fault-free run.

   The first is checked against the second over the whole universe, at
   several pool widths and on both sides of the sharding crossover; the
   third is scalar and per-fault, so it covers s27 and a band of small
   synthetics. The single-fault path ({!Bist_fault.Fsim.single}, whose
   trace buffer is reused across sequences) and the snapshot calls the
   directed search branches with are checked against {!Packed_sim}
   too. *)

module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module Rng = Bist_util.Rng
module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate
module Builder = Bist_circuit.Builder
module Universe = Bist_fault.Universe
module Fault = Bist_fault.Fault
module Fsim = Bist_fault.Fsim
module Pool = Bist_parallel.Pool
module Tune = Bist_parallel.Tune
module Ppsfp = Bist_sim.Ppsfp
module Seq_sim = Bist_sim.Seq_sim

let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()

(* Sharding forced into [jobs] chunks / suppressed entirely — the two
   sides of the crossover, pinned independently of this host's cores. *)
let tune_shard () = Tune.create ~min_units:1 ()
let tune_seq () = Tune.create ~min_units:max_int ()

let det_times ?pool ?tune universe seq =
  (Fsim.run ?pool ?tune universe seq).Fsim.det_time

let install sim fault ~lane =
  let mask = 1 lsl lane in
  match (fault : Fault.t) with
  | { site = Fault.Output n; stuck } -> Packed_sim.add_output_force sim n ~mask stuck
  | { site = Fault.Pin { gate; pin }; stuck } ->
    Packed_sim.add_pin_force sim ~gate ~pin ~mask stuck

(* The reference table: every fault of the universe, 62 per pass (lane 0
   is the fault-free machine), each pass a full sweep of the circuit over
   the whole sequence. *)
let packed_det_times universe seq =
  let faults_per_pass = 62 in
  let k = Universe.size universe in
  let det = Array.make k (-1) in
  let sim = Packed_sim.create (Universe.circuit universe) in
  let n_groups = (k + faults_per_pass - 1) / faults_per_pass in
  for g = 0 to n_groups - 1 do
    let base = g * faults_per_pass in
    let group_size = min faults_per_pass (k - base) in
    Packed_sim.clear_forces sim;
    Packed_sim.reset sim;
    for j = 0 to group_size - 1 do
      install sim (Universe.get universe (base + j)) ~lane:(j + 1)
    done;
    (* [live] = lanes of not-yet-detected faults in this group. *)
    let live = ref (((1 lsl group_size) - 1) lsl 1) in
    for u = 0 to Tseq.length seq - 1 do
      Packed_sim.step sim (Tseq.get seq u);
      let newly = Packed_sim.po_diff_lanes sim land !live in
      if newly <> 0 then begin
        for j = 0 to group_size - 1 do
          if newly land (1 lsl (j + 1)) <> 0 then det.(base + j) <- u
        done;
        live := !live land lnot newly
      end
    done
  done;
  det

let seq_for circuit ~seed ~len =
  let rng = Rng.create seed in
  Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:len

(* PPSFP vs Packed_sim on the 25 seeded synthetics, at widths 1/2/4 and
   across the crossover boundary. *)
let test_synthetics_ppsfp_vs_packed () =
  for seed = 0 to 24 do
    let circuit = Testutil.small_circuit (17 * seed) in
    let universe = Universe.collapsed circuit in
    let seq = seq_for circuit ~seed:(seed + 1) ~len:(10 + (seed mod 25)) in
    let reference = packed_det_times universe seq in
    let label variant = Printf.sprintf "seed %d: %s == packed" seed variant in
    Alcotest.(check (array int))
      (label "ppsfp sequential")
      reference
      (det_times ~tune:(tune_seq ()) universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=2 sharded")
      reference
      (det_times ~pool:pool2 ~tune:(tune_shard ()) universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4 sharded")
      reference
      (det_times ~pool:pool4 ~tune:(tune_shard ()) universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4 below crossover")
      reference
      (det_times ~pool:pool4 ~tune:(tune_seq ()) universe seq)
  done

(* Same cross-check on every registry circuit. *)
let test_registry_ppsfp_vs_packed () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let circuit = entry.circuit () in
      let universe = Universe.collapsed circuit in
      let seq = seq_for circuit ~seed:23 ~len:24 in
      let reference = packed_det_times universe seq in
      Alcotest.(check (array int))
        (entry.name ^ ": ppsfp == packed")
        reference
        (det_times ~tune:(tune_seq ()) universe seq);
      Alcotest.(check (array int))
        (entry.name ^ ": ppsfp jobs=2 == packed")
        reference
        (det_times ~pool:pool2 ~tune:(tune_shard ()) universe seq))
    (Bist_bench.Registry.all ())

(* The qcheck property: any synthetic circuit, any binary sequence, any
   width/crossover side — same table. *)
let ppsfp_differential_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"ppsfp == packed (random circuit/seq/width)"
       ~count:40 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seq = seq_for circuit ~seed:sseed ~len in
         let reference = packed_det_times universe seq in
         let pool, tune =
           match (cseed + sseed + len) mod 3 with
           | 0 -> (None, tune_seq ())
           | 1 -> (Some pool2, tune_shard ())
           | _ -> (Some pool4, tune_shard ())
         in
         reference = det_times ?pool ~tune universe seq))

(* --- structural fault compilation for the Seq_sim oracle ------------ *)

let const_name = "__sa_const"
let orig_prefix = "__sa_orig_"

(* Rebuild [circuit] with [fault] baked into the structure. *)
let mutant circuit (fault : Fault.t) =
  let b = Builder.create ~name:(Netlist.circuit_name circuit ^ "_mutant") in
  let stuck_kind =
    match fault.stuck with
    | T.One -> Gate.Const1
    | T.Zero -> Gate.Const0
    | T.X -> invalid_arg "mutant: stuck-at-X"
  in
  Builder.add_gate b ~output:const_name stuck_kind [];
  let stem =
    match fault.site with Fault.Output n -> Some n | Fault.Pin _ -> None
  in
  Array.iter
    (fun node ->
      match stem with
      | Some n when n = node ->
        (* The faulty input keeps its declaration (sequence width and
           input order must not change) under a fresh unused name; the
           original name becomes the constant. *)
        Builder.add_input b (orig_prefix ^ Netlist.name circuit node)
      | _ -> Builder.add_input b (Netlist.name circuit node))
    (Netlist.inputs circuit);
  for node = 0 to Netlist.size circuit - 1 do
    let kind = Netlist.kind circuit node in
    if kind <> Gate.Input then begin
      let fanin_names =
        Array.to_list
          (Array.mapi
             (fun pin d ->
               match fault.site with
               | Fault.Pin { gate; pin = p } when gate = node && p = pin ->
                 const_name
               | _ -> Netlist.name circuit d)
             (Netlist.fanins circuit node))
      in
      match stem with
      | Some n when n = node ->
        (* Stem fault on a gate or flip-flop output: the original gate
           survives under a fresh name (its value is simply unobserved),
           the original name becomes the constant every consumer and
           primary output reads. *)
        Builder.add_gate b ~output:(orig_prefix ^ Netlist.name circuit node)
          kind fanin_names;
        Builder.add_gate b ~output:(Netlist.name circuit node) stuck_kind []
      | _ -> Builder.add_gate b ~output:(Netlist.name circuit node) kind fanin_names
    end
    else if stem = Some node then
      Builder.add_gate b ~output:(Netlist.name circuit node) stuck_kind []
  done;
  Array.iter
    (fun po -> Builder.add_output b (Netlist.name circuit po))
    (Netlist.outputs circuit);
  Builder.finalize b

(* First time unit where some primary output is binary in the fault-free
   run and the opposite binary value in the faulty run — the paper's
   detection condition, evaluated on scalar simulations. *)
let scalar_det_time good bad =
  let len = Array.length good in
  let npo = if len = 0 then 0 else Vector.width good.(0) in
  let rec go u =
    if u >= len then -1
    else begin
      let differs = ref false in
      for i = 0 to npo - 1 do
        match (Vector.get good.(u) i, Vector.get bad.(u) i) with
        | T.One, T.Zero | T.Zero, T.One -> differs := true
        | _ -> ()
      done;
      if !differs then u else go (u + 1)
    end
  in
  go 0

let check_seq_sim_oracle circuit ~seed ~len =
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed ~len in
  let good = Seq_sim.run circuit seq in
  let table = det_times universe seq in
  Universe.iter
    (fun id fault ->
      let bad = Seq_sim.run (mutant circuit fault) seq in
      Alcotest.(check int)
        (Printf.sprintf "%s fault %s" (Netlist.circuit_name circuit)
           (Fault.name circuit fault))
        (scalar_det_time good bad) table.(id))
    universe

let test_seq_sim_oracle_s27 () =
  check_seq_sim_oracle (Bist_bench.S27.circuit ()) ~seed:3 ~len:32

let test_seq_sim_oracle_synthetics () =
  List.iter
    (fun cseed ->
      check_seq_sim_oracle (Testutil.small_circuit cseed) ~seed:(cseed + 5)
        ~len:20)
    [ 1; 2; 3; 4; 5 ]

(* --- kernel-level properties ---------------------------------------- *)

(* The event core must actually skip quiescent work: a single fault at
   the very end of the topological order disturbs almost nothing, so the
   evaluation count stays far below gates × steps. *)
let test_event_core_skips_quiescent_levels () =
  let circuit = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  let len = 64 in
  let seq = seq_for circuit ~seed:9 ~len in
  let sim = Ppsfp.create circuit in
  let tr = Ppsfp.trace sim seq in
  let topo = Netlist.topo_order circuit in
  let last = topo.(Array.length topo - 1) in
  Ppsfp.add_output_force sim last ~mask:2 T.One;
  Ppsfp.reset sim;
  for u = 0 to len - 1 do
    Ppsfp.step sim tr u
  done;
  let budget = Netlist.num_gates circuit * len / 4 in
  Alcotest.(check bool)
    (Printf.sprintf "evaluations %d < %d" (Ppsfp.evaluations sim) budget)
    true
    (Ppsfp.evaluations sim < budget);
  Alcotest.(check int) "trace fully materialized" len (Ppsfp.trace_length tr);
  Alcotest.(check int) "all steps event-driven" len (Ppsfp.event_steps sim)

(* Dropping a detected lane must leave the other lanes bit-for-bit
   untouched: simulate two faults together, drop one mid-sequence, and
   the survivor's detection behaviour must match a solo run. *)
let test_drop_lanes_preserves_other_lanes () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed:12 ~len:24 in
  let reference = packed_det_times universe seq in
  (* The production path drops on detection; equality with the packed
     loop (which never drops) is exactly the preservation property,
     fault by fault. *)
  Alcotest.(check (array int)) "dropping == never dropping" reference
    (det_times universe seq)

let test_lane0_reserved_and_validation () =
  let circuit = Bist_bench.S27.circuit () in
  let sim = Ppsfp.create circuit in
  Alcotest.check_raises "lane 0 reserved"
    (Invalid_argument "Ppsfp: lane 0 is reserved for the fault-free machine")
    (fun () -> Ppsfp.add_output_force sim 0 ~mask:1 T.One);
  let seq = seq_for circuit ~seed:1 ~len:4 in
  let tr = Ppsfp.trace sim seq in
  Alcotest.check_raises "step beyond the sequence"
    (Invalid_argument "Ppsfp.step: time step beyond the sequence") (fun () ->
      Ppsfp.step sim tr 4);
  let other_circuit = Testutil.small_circuit 0 in
  let other = Ppsfp.create other_circuit in
  let seq2 = seq_for other_circuit ~seed:2 ~len:4 in
  let tr2 = Ppsfp.trace other seq2 in
  Alcotest.check_raises "trace/circuit mismatch"
    (Invalid_argument "Ppsfp.step: trace belongs to a different circuit")
    (fun () -> Ppsfp.step sim tr2 0)

(* --- the single-fault path and snapshots ------------------------------ *)

(* The single-fault loop [Fsim.single] ran before it moved onto Ppsfp:
   the fault in lane 1 of one oracle simulator, reset per sequence, a
   full sweep per step, the first detection wins. *)
let packed_single circuit fault =
  let sim = Packed_sim.create circuit in
  install sim fault ~lane:1;
  fun seq ->
    Packed_sim.reset sim;
    let len = Tseq.length seq in
    let rec go u =
      if u >= len then None
      else begin
        Packed_sim.step sim (Tseq.get seq u);
        if Packed_sim.po_diff_lanes sim <> 0 then Some u else go (u + 1)
      end
    in
    go 0

(* Every fault in [ids], each with one [Fsim.single] that sees every
   sequence in turn: a long, a short and a long one, so a trace buffer
   carried over from the previous sequence shows as a wrong time. *)
let single_mismatches circuit universe ids seqs =
  List.filter_map
    (fun id ->
      let fault = Universe.get universe id in
      let single = Fsim.single circuit fault in
      let oracle = packed_single circuit fault in
      List.find_map
        (fun seq ->
          let want = oracle seq and got = Fsim.single_detection_time single seq in
          if want = got then None
          else
            let show = function None -> "none" | Some u -> string_of_int u in
            Some
              (Printf.sprintf "%s on %d vectors: packed %s, single %s"
                 (Fault.name circuit fault) (Tseq.length seq) (show want)
                 (show got)))
        seqs)
    ids

let check_single_vs_packed ?(every = 1) name =
  let circuit = (Option.get (Bist_bench.Registry.find name)).circuit () in
  let universe = Universe.collapsed circuit in
  let ids =
    List.filter (fun id -> id mod every = 0)
      (List.init (Universe.size universe) Fun.id)
  in
  let seqs =
    [ seq_for circuit ~seed:31 ~len:300; seq_for circuit ~seed:32 ~len:5;
      seq_for circuit ~seed:33 ~len:300 ]
  in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: single == packed on %d faults" name (List.length ids))
    [] (single_mismatches circuit universe ids seqs)

let test_single_vs_packed () =
  check_single_vs_packed "s27";
  check_single_vs_packed "x298";
  check_single_vs_packed ~every:11 "x1488"

let single_differential_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"single == packed (random circuit/seq)" ~count:30
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seqs =
           [ seq_for circuit ~seed:sseed ~len; seq_for circuit ~seed:(sseed + 1) ~len:2;
             seq_for circuit ~seed:(sseed + 2) ~len:(len + 7) ]
         in
         single_mismatches circuit universe
           (List.init (Universe.size universe) Fun.id)
           seqs
         = []))

(* Branching off a snapshot must replay the uninterrupted run: with 62
   faults installed, [prefix ++ seg] stepped from reset gives, at every
   step of [seg], the same detection mask, the same per-lane flip-flop
   divergence and the same fault-free values as restoring the snapshot
   taken after [prefix] and stepping [seg] on a trace started from it.
   Two segments share the snapshot, and the simulator is reset between
   the save and the first restore, so a restore that keeps the current
   flip-flop bookkeeping is caught. *)
let test_snapshot_replays_prefix name () =
  let circuit = (Option.get (Bist_bench.Registry.find name)).circuit () in
  let universe = Universe.collapsed circuit in
  let install_group sim =
    for j = 0 to min 62 (Universe.size universe) - 1 do
      Fsim.install sim (Universe.get universe (3 * j mod Universe.size universe))
        ~lane:(j + 1)
    done
  in
  let prefix = seq_for circuit ~seed:41 ~len:40 in
  let observe sim tr ~from ~len =
    List.init len (fun u ->
        Ppsfp.step sim tr (from + u);
        ( Ppsfp.po_diff_lanes sim,
          List.init 62 (fun l -> Ppsfp.state_diff_count sim ~lane:(l + 1)),
          List.init (Netlist.size circuit) (fun node ->
              T.to_char (Ppsfp.good_value tr (from + u) node)) ))
  in
  let branching = Ppsfp.create circuit in
  install_group branching;
  Ppsfp.reset branching;
  let tr = Ppsfp.trace branching prefix in
  ignore (observe branching tr ~from:0 ~len:(Tseq.length prefix));
  let diverged =
    List.length
      (List.filter
         (fun l -> Ppsfp.state_diff_count branching ~lane:l > 0)
         (List.init 62 succ))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d lanes diverge after the prefix" name diverged)
    true (diverged > 0);
  let snap = Ppsfp.save_state branching in
  Ppsfp.reset branching;
  List.iter
    (fun seed ->
      let seg = seq_for circuit ~seed ~len:24 in
      let straight = Ppsfp.create circuit in
      install_group straight;
      Ppsfp.reset straight;
      let whole = Tseq.concat prefix seg in
      let straight_tr = Ppsfp.trace straight whole in
      ignore (observe straight straight_tr ~from:0 ~len:(Tseq.length prefix));
      let want = observe straight straight_tr ~from:(Tseq.length prefix) ~len:24 in
      Ppsfp.restore_state branching snap;
      Ppsfp.retrace ~from:snap tr seg;
      let got = observe branching tr ~from:0 ~len:24 in
      Alcotest.(check bool)
        (Printf.sprintf "%s segment %d: branch == straight run" name seed)
        true (want = got))
    [ 42; 43 ]

let suite =
  [
    Alcotest.test_case "synthetics: ppsfp == packed at widths 1/2/4" `Slow
      test_synthetics_ppsfp_vs_packed;
    Alcotest.test_case "registry: ppsfp == packed" `Slow
      test_registry_ppsfp_vs_packed;
    ppsfp_differential_property;
    Alcotest.test_case "Seq_sim oracle on s27 mutants" `Quick
      test_seq_sim_oracle_s27;
    Alcotest.test_case "Seq_sim oracle on synthetics" `Slow
      test_seq_sim_oracle_synthetics;
    Alcotest.test_case "event core skips quiescent levels" `Quick
      test_event_core_skips_quiescent_levels;
    Alcotest.test_case "fault dropping preserves other lanes" `Quick
      test_drop_lanes_preserves_other_lanes;
    Alcotest.test_case "ppsfp argument validation" `Quick
      test_lane0_reserved_and_validation;
    Alcotest.test_case "single == packed (s27, x298, x1488 sample)" `Quick
      test_single_vs_packed;
    single_differential_property;
    Alcotest.test_case "snapshot branch == straight run (s27)" `Quick
      (test_snapshot_replays_prefix "s27");
    Alcotest.test_case "snapshot branch == straight run (x298)" `Quick
      (test_snapshot_replays_prefix "x298");
  ]
