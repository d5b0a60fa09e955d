(* Differential-oracle suite for the PPSFP fault-simulation core.

   Three independent implementations must produce the same fault table:

   - {!Bist_fault.Fsim.run}, whose kernel is {!Bist_sim.Ppsfp} (shared
     fault-free trace, event-driven levelized evaluation, fault
     dropping);
   - a full-sweep {!Packed_sim} loop over 62-fault groups
     ([Testutil.packed_det_times]), that never drops a fault and always
     runs the whole sequence ({!Packed_sim} is the test-local oracle
     kernel);
   - {!Bist_sim.Seq_sim} on a mutated netlist: each fault is compiled
     into the circuit structurally (stem stuck-at becomes a constant
     driver, a fanout-branch stuck-at rewires one consumer pin to a
     constant node) and the scalar simulator's primary outputs are
     compared against the fault-free run.

   The first is checked against the second over the whole universe, at
   pool widths 1, 2 and 4; the third is scalar and per-fault, so it
   covers s27 and a band of small synthetics. The single-fault path
   ({!Bist_fault.Fsim.single}, whose trace buffer is reused across
   sequences) and the snapshot calls the directed search branches with
   are checked against {!Packed_sim} too, and so is every step of a run
   under random flip-flop and X-site forces, with lanes dropped and the
   run moved into a fresh simulator mid-sequence.

   The fault-free trace every group pass reads is checked on its own:
   its gate table exhaustively against {!Bist_circuit.Gate.eval}, and
   every node at every step against {!Bist_sim.Seq_sim}. *)

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
module Ppsfp = Bist_sim.Ppsfp
module Seq_sim = Bist_sim.Seq_sim

(* Explicit widths: the domains exist even on a one-core host, so on
   pool2 and pool4 every target set of more than 62 faults really is
   sharded. *)
let pool1 = Pool.create ~jobs:1 ()
let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()

let det_times ?pool universe seq = (Fsim.run ?pool universe seq).Fsim.det_time

let seq_for circuit ~seed ~len =
  let rng = Rng.create seed in
  Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:len

(* PPSFP vs Packed_sim on the 25 seeded synthetics, at widths 1/2/4. *)
let test_synthetics_ppsfp_vs_packed () =
  for seed = 0 to 24 do
    let circuit = Testutil.small_circuit (17 * seed) in
    let universe = Universe.collapsed circuit in
    let seq = seq_for circuit ~seed:(seed + 1) ~len:(10 + (seed mod 25)) in
    let reference = Testutil.packed_det_times universe seq in
    let label variant = Printf.sprintf "seed %d: %s == packed" seed variant in
    Alcotest.(check (array int))
      (label "ppsfp jobs=1")
      reference
      (det_times ~pool:pool1 universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=2")
      reference
      (det_times ~pool:pool2 universe seq);
    Alcotest.(check (array int))
      (label "ppsfp jobs=4")
      reference
      (det_times ~pool:pool4 universe seq)
  done

(* Same cross-check on every registry circuit. *)
let test_registry_ppsfp_vs_packed () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let circuit = entry.circuit () in
      let universe = Universe.collapsed circuit in
      let seq = seq_for circuit ~seed:23 ~len:24 in
      let reference = Testutil.packed_det_times universe seq in
      Alcotest.(check (array int))
        (entry.name ^ ": ppsfp == packed")
        reference
        (det_times ~pool:pool1 universe seq);
      let before = Pool.dispatched_tasks () in
      Alcotest.(check (array int))
        (entry.name ^ ": ppsfp jobs=2 == packed")
        reference
        (det_times ~pool:pool2 universe seq);
      (* Only s27 fits in one 62-fault group; every other circuit
         really is sharded at jobs=2. *)
      Alcotest.(check int)
        (entry.name ^ ": jobs=2 tasks")
        (if entry.name = "s27" then 0 else 1)
        (Pool.dispatched_tasks () - before))
    (Bist_bench.Registry.all ())

(* The qcheck property: any synthetic circuit, any binary sequence, any
   width — same table. *)
let ppsfp_differential_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"ppsfp == packed (random circuit/seq/width)"
       ~count:40 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seq = seq_for circuit ~seed:sseed ~len in
         let reference = Testutil.packed_det_times universe seq in
         let pool =
           match (cseed + sseed + len) mod 3 with
           | 0 -> pool1
           | 1 -> pool2
           | _ -> pool4
         in
         reference = det_times ~pool universe seq))

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
  Alcotest.(check int) "trace fully materialized" len (Ppsfp.trace_length tr)

(* Dropping a detected lane must leave the other lanes bit-for-bit
   untouched: simulate two faults together, drop one mid-sequence, and
   the survivor's detection behaviour must match a solo run. *)
let test_drop_lanes_preserves_other_lanes () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed:12 ~len:24 in
  let reference = Testutil.packed_det_times universe seq in
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
    (fun () -> Ppsfp.step sim tr2 0);
  (* Per-lane state and frontiers. s27 has three flip-flops. *)
  Alcotest.check_raises "load: one code per flip-flop"
    (Invalid_argument "Ppsfp.load: one code per flip-flop")
    (fun () -> Ppsfp.load sim (Bytes.make 2 '\000'));
  Alcotest.check_raises "load: code out of range"
    (Invalid_argument "Ppsfp.load: code out of range")
    (fun () -> Ppsfp.load sim (Bytes.make 3 '\003'));
  Ppsfp.load sim (Bytes.make 3 '\001');
  Ppsfp.step sim (Ppsfp.trace ~start:(Bytes.make 3 '\001') sim seq) 0;
  Alcotest.check_raises "load_lane after a step"
    (Invalid_argument "Ppsfp.load_lane: a step ran since the last load")
    (fun () -> Ppsfp.load_lane sim ~lane:1 (Bytes.make 3 '\002'));
  let x = Bytes.make 3 '\000' in
  Alcotest.check_raises "load_candidates: too many"
    (Invalid_argument "Ppsfp.load_candidates: more than max_candidates sequences")
    (fun () ->
      Ppsfp.load_candidates sim ~good:x ~faulty:x (Array.make (Ppsfp.max_candidates + 1) seq));
  Alcotest.check_raises "load_candidates: width"
    (Invalid_argument "Ppsfp.load_candidates: sequence width")
    (fun () -> Ppsfp.load_candidates sim ~good:x ~faulty:x [| seq2 |]);
  let universe = Universe.collapsed circuit in
  let seq = seq_for circuit ~seed:1 ~len:16 in
  let outcome = Fsim.run ~record:[| 8 |] universe seq in
  let from = outcome.Fsim.frontiers.(0) in
  let suffix = Tseq.sub seq ~lo:8 ~hi:15 in
  Alcotest.check_raises "record steps ascending"
    (Invalid_argument "Fsim.run ~record: steps not ascending")
    (fun () -> ignore (Fsim.run ~record:[| 2; 1 |] universe seq : Fsim.outcome));
  Alcotest.check_raises "record step outside the run"
    (Invalid_argument "Fsim.run: record step outside the run")
    (fun () -> ignore (Fsim.run ~from ~record:[| 1 |] universe suffix : Fsim.outcome));
  Alcotest.check_raises "block with record"
    (Invalid_argument "Fsim.run: a block length with record or rejoin")
    (fun () -> ignore (Fsim.run ~block:2 ~record:[| 1 |] universe seq : Fsim.outcome));
  let detected = Bist_util.Bitset.create (Universe.size universe) in
  Array.iteri (fun id d -> if d >= 0 && d < 8 then Bist_util.Bitset.add detected id) outcome.Fsim.det_time;
  if Bist_util.Bitset.is_empty detected then Alcotest.fail "s27: expected a detection before step 8";
  Alcotest.check_raises "targets the frontier does not hold"
    (Invalid_argument "Fsim.run: target not held by the frontier")
    (fun () -> ignore (Fsim.run ~from ~targets:detected universe suffix : Fsim.outcome))

(* --- the fault-free sweep ---------------------------------------------- *)

(* Every vector over [k] ternary inputs. *)
let rec all_inputs k =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun rest -> List.map (fun v -> v :: rest) [ T.Zero; T.One; T.X ])
      (all_inputs (k - 1))

(* One gate of every combinational kind at every legal arity up to 4,
   fed by its own primary inputs and driven through all 3^k ternary
   vectors: the gate's trace value must be [Gate.eval] of the inputs at
   every step. This covers every row of the kernel's table under every
   fanin code a gate can present, and the folds of the three- and
   four-input gates. A constant gets one primary input that feeds
   nothing, so it has a sequence. *)
let test_table_exhaustive () =
  let mismatches = ref [] in
  List.iter
    (fun kind ->
      for k = 0 to 4 do
        if Gate.arity_ok kind k then begin
          let b = Builder.create ~name:"gate" in
          let width = max 1 k in
          let ins = List.init width (Printf.sprintf "i%d") in
          List.iter (Builder.add_input b) ins;
          Builder.add_gate b ~output:"g" kind (List.filteri (fun i _ -> i < k) ins);
          Builder.add_output b "g";
          let circuit = Builder.finalize b in
          let g = Netlist.find_exn circuit "g" in
          let vectors = all_inputs width in
          let seq =
            Tseq.of_vectors
              (Array.of_list
                 (List.map (fun v -> Vector.init width (List.nth v)) vectors))
          in
          let sim = Ppsfp.create circuit in
          let tr = Ppsfp.trace sim seq in
          List.iteri
            (fun u v ->
              Ppsfp.step sim tr u;
              let args = Array.of_list (List.filteri (fun i _ -> i < k) v) in
              let want = Gate.eval kind args and got = Ppsfp.good_value tr u g in
              if not (T.equal want got) then
                mismatches :=
                  Printf.sprintf "%s(%s) = %c, trace %c" (Gate.kind_name kind)
                    (String.concat "," (List.map (fun x -> String.make 1 (T.to_char x))
                       (Array.to_list args)))
                    (T.to_char want) (T.to_char got)
                  :: !mismatches)
            vectors
        end
      done)
    Gate.[ Buf; Not; And; Nand; Or; Nor; Xor; Xnor; Const0; Const1 ];
  Alcotest.(check (list string)) "trace == Gate.eval" [] (List.rev !mismatches)

(* Every node at every step of [seq]: the trace's fault-free value
   against the scalar levelized simulator's, as "node@step" mismatches.
   [tr] is restarted on [seq] first, with block length [block], so one
   trace can serve several sequences. *)
let sweep_mismatches ?block sim tr seq =
  let circuit = Ppsfp.circuit sim in
  let scalar = Seq_sim.create circuit in
  Ppsfp.retrace ?block tr seq;
  Ppsfp.reset sim;
  let bad = ref [] in
  Tseq.iteri
    (fun u vec ->
      ignore (Seq_sim.step scalar vec : Vector.t);
      Ppsfp.step sim tr u;
      for node = 0 to Netlist.size circuit - 1 do
        if not (T.equal (Seq_sim.node_value scalar node) (Ppsfp.good_value tr u node))
        then bad := Printf.sprintf "%s@%d" (Netlist.name circuit node) u :: !bad
      done)
    seq;
  List.rev !bad

let check_sweep circuit seq =
  let sim = Ppsfp.create circuit in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: trace == Seq_sim on %d vectors"
       (Netlist.circuit_name circuit) (Tseq.length seq))
    []
    (sweep_mismatches sim (Ppsfp.trace sim seq) seq)

(* Every registry circuit up to x5378, whose 64 steps keep the test
   quick. *)
let test_sweep_registry () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      if entry.name <> "x35932" then begin
        let circuit = entry.circuit () in
        let len = if entry.name = "x5378" then 64 else 128 in
        check_sweep circuit (seq_for circuit ~seed:51 ~len)
      end)
    (Bist_bench.Registry.all ())

let test_sweep_synthetics () =
  for seed = 0 to 24 do
    let circuit = Testutil.small_circuit (17 * seed) in
    check_sweep circuit (seq_for circuit ~seed:(seed + 61) ~len:40)
  done

(* One trace restarted on a long, a short and a long sequence: a step
   left over from the previous sequence shows as a mismatch. *)
let test_sweep_retrace () =
  let circuit = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  let sim = Ppsfp.create circuit in
  let tr = Ppsfp.trace sim (Tseq.empty (Netlist.num_inputs circuit)) in
  List.iter
    (fun (seed, len) ->
      Alcotest.(check (list string))
        (Printf.sprintf "retraced on %d vectors" len)
        []
        (sweep_mismatches sim tr (seq_for circuit ~seed ~len)))
    [ (71, 300); (72, 5); (73, 300) ]

(* Random circuits under sequences with X on the primary inputs. *)
let sweep_x_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"trace == Seq_sim (random circuit, X inputs)"
       ~count:60 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let rng = Rng.create sseed in
         let seq =
           Tseq.of_vectors
             (Array.init len (fun _ ->
                  Vector.init (Netlist.num_inputs circuit) (fun _ ->
                      match Rng.int rng 3 with 0 -> T.Zero | 1 -> T.One | _ -> T.X)))
         in
         let sim = Ppsfp.create circuit in
         sweep_mismatches sim (Ppsfp.trace sim seq) seq = []))

(* --- the single-fault path and snapshots ------------------------------ *)

(* The single-fault loop [Fsim.single] ran before it moved onto Ppsfp:
   the fault in lane 1 of one oracle simulator, reset per sequence, a
   full sweep per step, the first detection wins. *)
let packed_single circuit fault =
  let sim = Packed_sim.create circuit in
  Testutil.packed_install sim fault ~lane:1;
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

(* Every lane's flip-flop state, one code string per lane 0..62. *)
let lane_codes sim =
  let n_ffs = Netlist.num_dffs (Ppsfp.circuit sim) in
  Array.init 63 (fun lane ->
      let codes = Bytes.create n_ffs in
      Ppsfp.lane_state sim ~lane codes;
      codes)

(* Lanes holding some flip-flop in the binary complement of lane 0's. *)
let diverged codes =
  let opposite a b = (a = '\001' && b = '\002') || (a = '\002' && b = '\001') in
  List.filter
    (fun l ->
      let differs = ref false in
      Bytes.iteri (fun i c -> if opposite (Bytes.get codes.(0) i) c then differs := true) codes.(l);
      !differs)
    (List.init 62 succ)

(* Branching off saved lane states must replay the uninterrupted run:
   with 62 faults installed, [prefix ++ seg] stepped from reset gives,
   at every step of [seg], the same detection mask, the same flip-flop
   state in every lane and the same fault-free values as loading the
   states read after [prefix] ([lane_state], then [load] and
   [load_lane]) and stepping [seg] on a trace started from lane 0's. Two
   segments share the saved states, and the simulator is reset between
   the save and the first load, so a load that keeps the current
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
          Array.to_list (Array.map Bytes.to_string (lane_codes sim)),
          List.init (Netlist.size circuit) (fun node ->
              T.to_char (Ppsfp.good_value tr (from + u) node)) ))
  in
  let branching = Ppsfp.create circuit in
  install_group branching;
  Ppsfp.reset branching;
  let tr = Ppsfp.trace branching prefix in
  ignore (observe branching tr ~from:0 ~len:(Tseq.length prefix));
  let saved = lane_codes branching in
  let diverged = List.length (diverged saved) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d lanes diverge after the prefix" name diverged)
    true (diverged > 0);
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
      Ppsfp.load branching saved.(0);
      for lane = 1 to 62 do
        Ppsfp.load_lane branching ~lane saved.(lane)
      done;
      let got = observe branching (Ppsfp.trace ~start:saved.(0) branching seg) ~from:0 ~len:24 in
      Alcotest.(check bool)
        (Printf.sprintf "%s segment %d: branch == straight run" name seed)
        true (want = got))
    [ 42; 43 ]

(* --- lazy flip-flop state and activation ----------------------------- *)

type force =
  | Out of Netlist.node * int * T.t (* node, lane mask, value *)
  | Pin of Netlist.node * int * int * T.t (* gate, pin, lane mask, value *)

let install_force sim = function
  | Out (node, mask, v) -> Ppsfp.add_output_force sim node ~mask v
  | Pin (gate, pin, mask, v) -> Ppsfp.add_pin_force sim ~gate ~pin ~mask v

let install_oracle sim = function
  | Out (node, mask, v) -> Packed_sim.add_output_force sim node ~mask v
  | Pin (gate, pin, mask, v) -> Packed_sim.add_pin_force sim ~gate ~pin ~mask v

(* One to three forces per lane, on the sites the kernel treats
   specially: a flip-flop's output or D pin (a flip-flop is clocked only
   when dirty, pinned or fed a deviating word), and a gate output or
   gate pin whose fault-free value is X at some step (a forced gate is
   evaluated only when a force disagrees with the value it overrides,
   and X disagrees with both). A lane forces a site once: opposite
   forces on one site would set both planes, a state that is no trace
   code, which no fault installs and no lane state can carry. *)
let random_forces rng circuit seq =
  let scalar = Seq_sim.create circuit in
  let x_site = Array.make (Netlist.size circuit) false in
  Tseq.iter
    (fun vec ->
      ignore (Seq_sim.step scalar vec : Vector.t);
      for node = 0 to Netlist.size circuit - 1 do
        if T.equal (Seq_sim.node_value scalar node) T.X then x_site.(node) <- true
      done)
    seq;
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let gates = Array.to_list (Netlist.topo_order circuit) in
  let x_gates = List.filter (fun g -> x_site.(g)) gates in
  let x_pins =
    List.concat_map
      (fun g ->
        Array.to_list (Netlist.fanins circuit g)
        |> List.mapi (fun p d -> if x_site.(d) then Some (g, p) else None)
        |> List.filter_map Fun.id)
      gates
  in
  let dffs = Array.to_list (Netlist.dffs circuit) in
  let value () = if Rng.bool rng then T.One else T.Zero in
  let site = function Out (n, _, _) -> (n, -1) | Pin (g, p, _, _) -> (g, p) in
  List.concat_map
    (fun lane ->
      let mask = 1 lsl lane in
      List.init
        (1 + Rng.int rng 3)
        (fun _ ->
          match Rng.int rng 5 with
          | 0 -> Out (pick dffs, mask, value ())
          | 1 -> Pin (pick dffs, 0, mask, value ())
          | 2 when x_gates <> [] -> Out (pick x_gates, mask, value ())
          | 3 when x_pins <> [] ->
            let g, p = pick x_pins in
            Pin (g, p, mask, value ())
          | _ -> Out (Rng.int rng (Netlist.size circuit), mask, value ()))
      |> List.fold_left
           (fun kept f ->
             if List.exists (fun k -> site k = site f) kept then kept else kept @ [ f ])
           [])
    (List.init 62 succ)

let codes_of_states states =
  Bytes.init (Array.length states) (fun i ->
      match states.(i) with T.One -> '\001' | T.Zero -> '\002' | T.X -> '\000')

(* The per-step observations of a forced run, against Packed_sim on the
   same forces: lanes in [drop] are dropped after step [drop_at], and
   after step [move_at - 1] the run moves into a fresh simulator: every
   lane's state read with [lane_state], written back with [load] and
   [load_lane], on a trace started from lane 0's. Each step compares the
   live lanes' detection mask and every lane's flip-flop state (a
   dropped lane's must be lane 0's). Returns the mismatches as
   "what@step" strings, and how many of the compared steps evaluated
   more than 55% of the gates. *)
let forced_run_mismatches circuit seq forces ~drop ~drop_at ~move_at =
  let len = Tseq.length seq in
  let sim = ref (Ppsfp.create circuit) in
  List.iter (install_force !sim) forces;
  Ppsfp.reset !sim;
  let tr = ref (Ppsfp.trace !sim seq) and offset = ref 0 in
  let oracle = Packed_sim.create circuit in
  List.iter (install_oracle oracle) forces;
  Packed_sim.reset oracle;
  let dropped = ref 0 and bad = ref [] and dense = ref 0 in
  for u = 0 to len - 1 do
    if u = move_at then begin
      let saved = lane_codes !sim in
      let fresh = Ppsfp.create circuit in
      List.iter (install_force fresh) forces;
      Ppsfp.drop_lanes fresh !dropped;
      Ppsfp.load fresh saved.(0);
      for lane = 1 to 62 do
        Ppsfp.load_lane fresh ~lane saved.(lane)
      done;
      sim := fresh;
      tr := Ppsfp.trace ~start:saved.(0) fresh (Tseq.sub seq ~lo:u ~hi:(len - 1));
      offset := u
    end;
    let before = Ppsfp.evaluations !sim in
    Ppsfp.step !sim !tr (u - !offset);
    if 100 * (Ppsfp.evaluations !sim - before) > 55 * Netlist.num_gates circuit then incr dense;
    Packed_sim.step oracle (Tseq.get seq u);
    let live = lnot !dropped in
    if Ppsfp.po_diff_lanes !sim <> Packed_sim.po_diff_lanes oracle land live then
      bad := Printf.sprintf "po_diff_lanes@%d" u :: !bad;
    let got = lane_codes !sim in
    for lane = 0 to 62 do
      let want =
        if !dropped land (1 lsl lane) <> 0 then got.(0)
        else codes_of_states (Packed_sim.lane_state oracle ~lane)
      in
      if not (Bytes.equal got.(lane) want) then
        bad := Printf.sprintf "lane_state %d@%d" lane u :: !bad
    done;
    if u = drop_at then begin
      dropped := drop;
      Ppsfp.drop_lanes !sim drop
    end
  done;
  (List.rev !bad, !dense)

(* The compared steps must include dense ones, where the event sweep
   reaches most of the circuit. *)
let forced_run_property =
  let dense = ref 0 in
  let name, speed, run =
    Testutil.qcheck
      (QCheck.Test.make
         ~name:"ppsfp forces, drops, snapshot moves == packed per step" ~count:60
         Testutil.circuit_and_seq
         (fun (cseed, sseed, len) ->
           let circuit = Testutil.small_circuit cseed in
           let rng = Rng.create sseed in
           let seq =
             Tseq.of_vectors
               (Array.init len (fun _ ->
                    Vector.init (Netlist.num_inputs circuit) (fun _ ->
                        match Rng.int rng 8 with
                        | 0 -> T.X
                        | k -> if k land 1 = 0 then T.Zero else T.One)))
           in
           let forces = random_forces rng circuit seq in
           let drop = (Rng.int rng (1 lsl 31) lor (Rng.int rng (1 lsl 31) lsl 31)) lsl 1 in
           let drop_at = Rng.int rng len and move_at = 1 + Rng.int rng (len - 1) in
           let bad, d = forced_run_mismatches circuit seq forces ~drop ~drop_at ~move_at in
           dense := !dense + d;
           bad = []
           || QCheck.Test.fail_reportf "drop at %d, move at %d: %s" drop_at move_at
                (String.concat ", " bad)))
  in
  ( name,
    speed,
    fun () ->
      dense := 0;
      run ();
      Alcotest.(check bool) (Printf.sprintf "%d dense steps compared" !dense) true (!dense > 0) )

(* --- candidate lanes ------------------------------------------------------ *)

let random_vector rng width =
  Vector.init width (fun _ ->
      match Rng.int rng 8 with 0 -> T.X | k -> if k land 1 = 0 then T.Zero else T.One)

(* One candidate alone on the oracle, as the one-candidate loop ran: the
   fault in lane 1 of a Packed_sim whose lanes 0 and 1 start in [good]
   and [faulty], stepped until the candidate detects or its sequence
   ends. Per step: whether it detected, lane 0's and lane 1's flip-flop
   states, the divergence count and every node's fault-free value. *)
let packed_candidate circuit fault ~good ~faulty seq =
  let sim = Packed_sim.create circuit in
  Testutil.packed_install sim fault ~lane:1;
  Packed_sim.reset sim;
  Packed_sim.load_lane sim ~lane:0 good;
  Packed_sim.load_lane sim ~lane:1 faulty;
  let rec go u acc =
    if u >= Tseq.length seq then List.rev acc
    else begin
      Packed_sim.step sim (Tseq.get seq u);
      let detected = Packed_sim.po_diff_lanes sim land 0b10 <> 0 in
      let obs =
        ( detected,
          codes_of_states (Packed_sim.lane_state sim ~lane:0),
          codes_of_states (Packed_sim.lane_state sim ~lane:1),
          Packed_sim.state_diff_count sim ~lane:1,
          Array.init (Netlist.size circuit) (fun node ->
              Packed.get (Packed_sim.node_value sim node) 0) )
      in
      if detected then List.rev (obs :: acc) else go (u + 1) (obs :: acc)
    end
  in
  Array.of_list (go 0 [])

(* A batch of 1 to [max_candidates] candidates of uneven lengths, with X
   inputs, from random start codes (the faulty machine often starting
   where the fault-free one does), against each candidate run alone on
   the oracle. At every step a candidate takes it must detect when the
   oracle does, carry its lanes' states, divergence and fault-free node
   values; it must stop after its detection step or its last vector, and
   a stopped candidate's lanes must keep its last state. *)
let candidate_mismatches circuit fault ~good ~faulty seqs =
  let m = Array.length seqs in
  let states codes =
    Array.init (Bytes.length codes) (fun i ->
        match Bytes.get codes i with '\001' -> T.One | '\002' -> T.Zero | _ -> T.X)
  in
  let want =
    Array.map (packed_candidate circuit fault ~good:(states good) ~faulty:(states faulty)) seqs
  in
  let sim = Ppsfp.create circuit in
  (match (fault : Fault.t) with
  | { site = Fault.Output n; stuck } -> Ppsfp.add_output_force sim n ~mask:Ppsfp.faulty_lanes stuck
  | { site = Fault.Pin { gate; pin }; stuck } ->
    Ppsfp.add_pin_force sim ~gate ~pin ~mask:Ppsfp.faulty_lanes stuck);
  Ppsfp.load_candidates sim ~good ~faulty seqs;
  let n_ffs = Bytes.length good in
  let counts = Array.make m 0 in
  let bad = ref [] in
  let fail k u what = bad := Printf.sprintf "candidate %d %s@%d" k what u :: !bad in
  let u = ref 0 in
  let last = Array.map (fun _ -> (Bytes.copy good, Bytes.copy faulty)) seqs in
  while Ppsfp.running_candidates sim <> 0 && !u <= 64 do
    let stepped = Ppsfp.running_candidates sim in
    Ppsfp.step_candidates sim;
    Ppsfp.candidate_divergence sim counts;
    let lane l =
      let c = Bytes.create n_ffs in
      Ppsfp.lane_state sim ~lane:l c;
      c
    in
    for k = 0 to m - 1 do
      let g = lane k and f = lane (k + Ppsfp.max_candidates) in
      let takes = !u < Array.length want.(k) in
      if (stepped land (1 lsl k) <> 0) <> takes then fail k !u "runs";
      if takes then begin
        let detected, wg, wf, wdiv, values = want.(k).(!u) in
        if (Ppsfp.detected_candidates sim land (1 lsl k) <> 0) <> detected then fail k !u "detection";
        if not (Bytes.equal g wg) then fail k !u "fault-free state";
        if not (Bytes.equal f wf) then fail k !u "faulty state";
        if counts.(k) <> wdiv then fail k !u "divergence";
        Array.iteri
          (fun node v ->
            List.iter
              (fun value ->
                if (Ppsfp.candidates_at sim node value land (1 lsl k) <> 0) <> T.equal v value
                then fail k !u (Printf.sprintf "value of %s" (Netlist.name circuit node)))
              [ T.One; T.Zero; T.X ])
          values;
        last.(k) <- (g, f)
      end
      else begin
        let lg, lf = last.(k) in
        if not (Bytes.equal g lg && Bytes.equal f lf) then fail k !u "frozen state"
      end
    done;
    incr u
  done;
  Array.iteri (fun k w -> if Array.length w > !u then fail k !u "stopped early") want;
  List.rev !bad

let candidate_lanes_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"candidate lanes == packed, one candidate at a time" ~count:80
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Rng.create sseed in
         let fault = Universe.get universe (Rng.int rng (Universe.size universe)) in
         let n_ffs = Netlist.num_dffs circuit in
         let codes () = Bytes.init n_ffs (fun _ -> Char.chr (Rng.int rng 3)) in
         let good = codes () in
         let faulty = if Rng.bool rng then Bytes.copy good else codes () in
         let m =
           if Rng.int rng 4 = 0 then Ppsfp.max_candidates else 1 + Rng.int rng Ppsfp.max_candidates
         in
         let width = Netlist.num_inputs circuit in
         let seqs =
           Array.init m (fun _ ->
               match Rng.int rng (len + 1) with
               | 0 -> Tseq.empty width
               | l -> Tseq.of_vectors (Array.init l (fun _ -> random_vector rng width)))
         in
         match candidate_mismatches circuit fault ~good ~faulty seqs with
         | [] -> true
         | bad ->
           QCheck.Test.fail_reportf "%s, %d candidates: %s" (Fault.name circuit fault) m
             (String.concat ", " (List.filteri (fun i _ -> i < 8) bad))))

(* --- group order and recurring blocks ----------------------------------- *)

(* A sequence of repeated blocks, with X inputs, and a block length to
   simulate it with. Half the time it is [Ops.expand] of a random S at
   n = 2..5; otherwise 1..4 segments, each S, its complement or a fresh
   block repeated 1..5 times. Either way one vector in six repeats may
   be replaced (a broken repeat). The block length is |S| half the
   time, else 1 or a random length up to |S| + 3, which need not divide
   the segments. *)
let blocky_case rng circuit =
  let width = Netlist.num_inputs circuit in
  let l = 1 + Rng.int rng 5 in
  let fresh () = Array.init l (fun _ -> random_vector rng width) in
  let s = fresh () in
  let vecs =
    if Rng.bool rng then
      Tseq.to_array (Bist_core.Ops.expand ~n:(2 + Rng.int rng 4) (Tseq.of_vectors s))
    else
      Array.concat
        (List.concat
           (List.init (1 + Rng.int rng 4) (fun _ ->
                let b =
                  match Rng.int rng 3 with
                  | 0 -> s
                  | 1 -> Array.map Vector.complement s
                  | _ -> fresh ()
                in
                List.init (1 + Rng.int rng 5) (fun _ -> b))))
  in
  let vecs =
    Array.map (fun v -> if Rng.int rng 6 = 0 then random_vector rng width else v) vecs
  in
  let block = match Rng.int rng 4 with 0 | 1 -> l | 2 -> 1 | _ -> 1 + Rng.int rng (l + 3) in
  (Tseq.of_vectors vecs, block)

let show_blocky seq block =
  Printf.sprintf "block %d, %d vectors" block (Tseq.length seq)

(* Oracle (a): with a block length, every group jumps the blocks in
   which all its lanes recur, on a pool of width 1, 2 or 4; the times
   must be the full-sweep loop's, which never jumps. *)
let blocks_vs_packed_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"ppsfp with a block length == packed (repeated blocks, X)"
       ~count:60 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seq, block = blocky_case (Rng.create sseed) circuit in
         let pool = [| pool1; pool2; pool4 |].(len mod 3) in
         let want = Testutil.packed_det_times universe seq in
         let got = (Fsim.run ~pool ~block universe seq).Fsim.det_time in
         want = got
         || QCheck.Test.fail_reportf "%s: Fsim.run ~block differs from packed"
              (show_blocky seq block)))

(* Oracle (b): the single-fault path with a block length answers as it
   does without one, fault by fault, on one [single] per fault that sees
   both calls. *)
let single_blocks_property =
  Testutil.qcheck
    (QCheck.Test.make
       ~name:"single with a block length == without (repeated blocks, X)" ~count:40
       Testutil.circuit_and_seq
       (fun (cseed, sseed, _) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let seq, block = blocky_case (Rng.create sseed) circuit in
         let bad =
           List.filter
             (fun id ->
               let single = Fsim.single circuit (Universe.get universe id) in
               let plain = Fsim.single_detection_time single seq in
               Fsim.single_detection_time ~block single seq <> plain)
             (List.init (Universe.size universe) Fun.id)
         in
         bad = []
         || QCheck.Test.fail_reportf "%s: faults %s differ" (show_blocky seq block)
              (String.concat " " (List.map string_of_int bad))))

(* Oracle (c): the trace of an expansion, given its block length, copies
   the blocks whose inputs and entry state repeat; every node at every
   step must still be Seq_sim's. One random S per circuit, n = 4, and
   the copies must really happen. *)
let test_sweep_expansions () =
  let copies = ref 0 in
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      if entry.name <> "x35932" then begin
        let circuit = entry.circuit () in
        let l = if entry.name = "x5378" then 2 else 4 in
        let s = seq_for circuit ~seed:57 ~len:l in
        let seq = Bist_core.Ops.expand ~n:4 s in
        let sim = Ppsfp.create circuit in
        let tr = Ppsfp.trace sim seq in
        Alcotest.(check (list string))
          (Printf.sprintf "%s: trace == Seq_sim on an expansion, block %d" entry.name l)
          []
          (sweep_mismatches ~block:l sim tr seq);
        copies := !copies + Ppsfp.trace_copies tr
      end)
    (Bist_bench.Registry.all ());
  Alcotest.(check bool) (Printf.sprintf "%d rows copied" !copies) true (!copies > 0)

let sweep_blocks_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"trace with a block length == Seq_sim (repeated blocks, X)"
       ~count:60 Testutil.circuit_and_seq
       (fun (cseed, sseed, _) ->
         let circuit = Testutil.small_circuit cseed in
         let seq, block = blocky_case (Rng.create sseed) circuit in
         let sim = Ppsfp.create circuit in
         match sweep_mismatches ~block sim (Ppsfp.trace sim seq) seq with
         | [] -> true
         | bad ->
           QCheck.Test.fail_reportf "%s: %s" (show_blocky seq block)
             (String.concat ", " bad)))

(* A fault's detection time does not depend on the faults that share
   its group: the full-sweep loop over a random permutation of random
   targets, cut into groups of random sizes up to 62, must give
   [Fsim.run]'s times, whose groups follow the locality order. *)
let group_composition_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"detection times do not depend on group composition"
       ~count:40 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Rng.create sseed in
         let seq =
           Tseq.of_vectors
             (Array.init len (fun _ -> random_vector rng (Netlist.num_inputs circuit)))
         in
         let targets = Bist_util.Bitset.create (Universe.size universe) in
         Universe.iter (fun id _ -> if Rng.int rng 4 > 0 then Bist_util.Bitset.add targets id)
           universe;
         let ids = Array.of_list (Bist_util.Bitset.elements targets) in
         let ids = Array.map (fun i -> ids.(i)) (Rng.permutation rng (Array.length ids)) in
         let rec cut left =
           if left = 0 then [] else
             let size = 1 + Rng.int rng (min 62 left) in
             size :: cut (left - size)
         in
         let sizes = cut (Array.length ids) in
         let want = Testutil.packed_det_times ~ids ~sizes universe seq in
         want = (Fsim.run ~pool:pool1 ~targets universe seq).Fsim.det_time
         || QCheck.Test.fail_reportf "groups of %s"
              (String.concat "," (List.map string_of_int sizes))))

(* The locality order, rebuilt by a plain recursive walk: ranks from a
   depth-first postorder from the primary outputs through fanins, then
   the unreached nodes in id order; faults stably sorted by the rank of
   their site (a pin fault's site is its gate). *)
let reference_order universe =
  let circuit = Universe.circuit universe in
  let n = Netlist.size circuit in
  let rank = Array.make n (-1) and seen = Array.make n false and count = ref 0 in
  let number v =
    rank.(v) <- !count;
    incr count
  in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Array.iter visit (Netlist.fanins circuit v);
      number v
    end
  in
  Array.iter visit (Netlist.outputs circuit);
  Array.iteri (fun v r -> if r < 0 then number v) rank;
  let site_rank id =
    match (Universe.get universe id).Fault.site with
    | Fault.Output v -> rank.(v)
    | Fault.Pin { gate; _ } -> rank.(gate)
  in
  Array.of_list
    (List.stable_sort
       (fun a b -> compare (site_rank a) (site_rank b))
       (List.init (Universe.size universe) Fun.id))

let test_locality_order () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let universe = Universe.collapsed (entry.circuit ()) in
      Alcotest.(check (array int)) (entry.name ^ ": locality order")
        (reference_order universe) (Universe.by_rank universe))
    (Bist_bench.Registry.all ());
  for seed = 0 to 24 do
    let universe = Universe.full (Testutil.small_circuit (17 * seed)) in
    Alcotest.(check (array int)) (Printf.sprintf "synthetic %d: locality order" seed)
      (reference_order universe) (Universe.by_rank universe)
  done

(* --- frontier states ------------------------------------------------------ *)

module Bitset = Bist_util.Bitset

(* Lane 0 and every fault of [ids] after [upto] steps of [seq] on the
   full-sweep oracle, 62-fault groups from reset: no trace, no events,
   no dropping. *)
let packed_states universe seq ~ids ~upto =
  let sim = Packed_sim.create (Universe.circuit universe) in
  let states = Hashtbl.create 64 and good = ref [||] in
  let k = Array.length ids in
  let base = ref 0 in
  while !base = 0 || !base < k do
    let size = min 62 (k - !base) in
    Packed_sim.clear_forces sim;
    Packed_sim.reset sim;
    for j = 0 to size - 1 do
      Testutil.packed_install sim (Universe.get universe ids.(!base + j)) ~lane:(j + 1)
    done;
    for u = 0 to upto - 1 do
      Packed_sim.step sim (Tseq.get seq u)
    done;
    good := Packed_sim.lane_state sim ~lane:0;
    for j = 0 to size - 1 do
      Hashtbl.replace states ids.(!base + j) (Packed_sim.lane_state sim ~lane:(j + 1))
    done;
    base := !base + max 1 size
  done;
  (!good, states)

let tail seq u =
  if u >= Tseq.length seq then Tseq.empty (Tseq.width seq)
  else Tseq.sub seq ~lo:u ~hi:(Tseq.length seq - 1)

let x_seq rng circuit len =
  Tseq.of_vectors (Array.init len (fun _ -> random_vector rng (Netlist.num_inputs circuit)))

let same_frontier a b =
  Fsim.frontier_step a = Fsim.frontier_step b
  && Fsim.frontier_faults a = Fsim.frontier_faults b
  && Fsim.frontier_good a = Fsim.frontier_good b
  && Array.for_all (fun id -> Fsim.frontier_state a id = Fsim.frontier_state b id)
       (Fsim.frontier_faults a)

(* Oracle (a): the frontier a run records at step u holds exactly the
   targets it has not detected before u, in the Packed_sim lane states;
   a run from that frontier over the suffix gives the straight run's
   times, in the straight run's steps, with or without a block length,
   and records the straight run's frontier at a later step v. Random
   targets, X inputs, pool width 1, 2 or 4. *)
let frontier_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"frontier at u, then run ~from on the suffix == straight run"
       ~count:60 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Rng.create sseed in
         let seq = x_seq rng circuit len in
         let n = Universe.size universe in
         let targets = Bitset.create n in
         for id = 0 to n - 1 do
           if Rng.int rng 4 > 0 then Bitset.add targets id
         done;
         let u = Rng.int rng (len + 1) in
         let v = u + Rng.int rng (len - u + 1) in
         let pool = [| pool1; pool2; pool4 |].(Rng.int rng 3) in
         let record = if u = v then [| u |] else [| u; v |] in
         let straight = Fsim.run ~pool ~targets ~record universe seq in
         let fu = straight.Fsim.frontiers.(0) in
         let fv = straight.Fsim.frontiers.(Array.length record - 1) in
         let held = Fsim.frontier_faults fu in
         let want_held =
           List.filter
             (fun id -> Bitset.mem targets id && not (straight.Fsim.det_time.(id) >= 0 && straight.Fsim.det_time.(id) < u))
             (List.init n Fun.id)
         in
         let held_set = Bitset.create n in
         Array.iter (Bitset.add held_set) held;
         let resumed = Fsim.run ~pool ~targets:held_set ~from:fu ~record:[| v |] universe (tail seq u) in
         let block = 1 + Rng.int rng 4 in
         let blocked = Fsim.run ~pool ~targets:held_set ~from:fu ~block universe (tail seq u) in
         let good, states = packed_states universe seq ~ids:held ~upto:u in
         let fail what =
           QCheck.Test.fail_reportf "u = %d, v = %d, %d held: %s" u v (Array.length held) what
         in
         if Array.to_list held <> want_held then fail "held set"
         else if Array.exists (fun id -> resumed.Fsim.det_time.(id) <> straight.Fsim.det_time.(id)) held
         then fail "times from the frontier"
         else if blocked.Fsim.det_time <> resumed.Fsim.det_time then
           fail (Printf.sprintf "times from the frontier with block length %d" block)
         else if Fsim.frontier_good fu <> good then fail "fault-free state"
         else if Array.exists (fun id -> Fsim.frontier_state fu id <> Hashtbl.find states id) held
         then fail "fault states"
         else same_frontier resumed.Fsim.frontiers.(0) fv || fail "frontier recorded from the frontier"))

(* Oracle (a'): the rejoin rule. R runs on S and records its frontiers;
   the candidate is S without the block [start, start + b). From R's
   frontier at start, with R's frontiers after start + b as rejoin
   points (shift b), every fault R still held at start gets the time
   the full-sweep loop gives it on the whole candidate. *)
let rejoin_property =
  Testutil.qcheck
    (QCheck.Test.make ~name:"rejoining R one block later retires with R's time - block"
       ~count:60 Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Rng.create sseed in
         let len = len + 4 in
         let seq = x_seq rng circuit len in
         let b = 1 + Rng.int rng (len / 3) in
         let start = Rng.int rng (len - b) in
         let candidate =
           Tseq.of_vectors
             (Array.init (len - b) (fun i -> Tseq.get seq (if i < start then i else i + b)))
         in
         let pool = [| pool1; pool2; pool4 |].(Rng.int rng 3) in
         let record = Array.init (len - start) (fun i -> start + i) in
         let r = Fsim.run ~pool ~record universe seq in
         let points =
           Array.of_list
             (List.filter (fun f -> Fsim.frontier_step f >= start + b) (Array.to_list r.Fsim.frontiers))
         in
         let from = r.Fsim.frontiers.(0) in
         let late = Bitset.create (Universe.size universe) in
         Array.iter (Bitset.add late) (Fsim.frontier_faults from);
         let got =
           Fsim.run ~pool ~targets:late ~from
             ~rejoin:{ Fsim.states = points; shift = b; det_time = r.Fsim.det_time }
             universe (tail candidate start)
         in
         let want = Testutil.packed_det_times universe candidate in
         let bad =
           List.filter (fun id -> got.Fsim.det_time.(id) <> want.(id)) (Bitset.elements late)
         in
         bad = []
         || QCheck.Test.fail_reportf "block [%d, %d) of %d, %d rejoined: faults %s differ" start
              (start + b) len got.Fsim.rejoined
              (String.concat " " (List.map string_of_int bad))))

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
    Alcotest.test_case "trace table == Gate.eval (every kind, arity <= 4)" `Quick
      test_table_exhaustive;
    Alcotest.test_case "trace == Seq_sim (registry through x5378)" `Quick
      test_sweep_registry;
    Alcotest.test_case "trace == Seq_sim (25 synthetics)" `Quick
      test_sweep_synthetics;
    Alcotest.test_case "trace == Seq_sim across retrace" `Quick
      test_sweep_retrace;
    sweep_x_property;
    Alcotest.test_case "single == packed (s27, x298, x1488 sample)" `Quick
      test_single_vs_packed;
    single_differential_property;
    Alcotest.test_case "snapshot branch == straight run (s27)" `Quick
      (test_snapshot_replays_prefix "s27");
    Alcotest.test_case "snapshot branch == straight run (x298)" `Quick
      (test_snapshot_replays_prefix "x298");
    forced_run_property;
    candidate_lanes_property;
    blocks_vs_packed_property;
    single_blocks_property;
    Alcotest.test_case "trace == Seq_sim on expansions with copied blocks" `Quick
      test_sweep_expansions;
    sweep_blocks_property;
    group_composition_property;
    Alcotest.test_case "locality order == recursive postorder" `Quick
      test_locality_order;
    frontier_property;
    rejoin_property;
  ]
