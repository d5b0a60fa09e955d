module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim

type summary = { count : int; total_length : int; max_length : int }

type run = {
  circuit_name : string;
  n : int;
  t0_length : int;
  total_faults : int;
  detected_by_t0 : int;
  before : summary;
  after : summary;
  sequences : Tseq.t list;
  expanded_total_length : int;
  proc1_seconds : float;
  compaction_seconds : float;
  simulate_t0_seconds : float;
  coverage_verified : bool;
}

let summary_of_sequences seqs =
  {
    count = List.length seqs;
    total_length = Procedure1.total_length seqs;
    max_length = Procedure1.max_length seqs;
  }

(* Wall time: process CPU time would sum over every domain of the pool. *)
let timed f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

(* Coverage check: the union of faults detected by the compacted
   expansions must include every fault T0 detects. *)
let verify_coverage ?(obs = Bist_obs.Obs.null) ~operators ~n universe targets seqs =
  let remaining = Bitset.copy targets in
  let time_units = ref 0 in
  List.iter
    (fun seq ->
      if not (Bitset.is_empty remaining) then begin
        let exp = Ops.expand_with ~operators ~n seq in
        time_units := !time_units + Tseq.length exp;
        let outcome =
          Fsim.run ~targets:remaining ?block:(Ops.block_length ~operators ~n seq)
            universe exp
        in
        Bitset.diff_into remaining outcome.Fsim.detected
      end)
    seqs;
  Bist_obs.Obs.count obs ~by:!time_units "verify.time_units";
  Bitset.is_empty remaining

let simulate_t0 ?(obs = Bist_obs.Obs.null) universe t0 =
  timed (fun () ->
      Bist_obs.Obs.span obs ~cat:"scheme" "scheme.simulate_t0" (fun () ->
          Bist_fault.Fault_table.compute ~obs universe t0))

let execute ?(strategy = Procedure2.paper_strategy)
    ?(operators = Ops.all_operators) ?(passes = Postprocess.default_passes)
    ?(fault_order = `Max_udet) ?(verify = true) ?(obs = Bist_obs.Obs.null) ?table
    ~seed ~n ~t0 universe =
  let rng = Bist_util.Rng.create seed in
  let span name f = Bist_obs.Obs.span obs ~cat:"scheme" name f in
  let table, simulate_t0_seconds =
    match table with Some table -> table | None -> simulate_t0 ~obs universe t0
  in
  (* Procedure 1 starts by fault-simulating T0; it reuses the table
     timed above (and checks that it belongs to this universe and T0),
     and its reported time counts that simulation once. *)
  let proc1, selection_seconds =
    timed (fun () ->
        span "scheme.proc1" (fun () ->
            Procedure1.run ~strategy ~operators ~fault_order ~obs ~table ~rng ~n
              ~t0 universe))
  in
  let proc1_seconds = simulate_t0_seconds +. selection_seconds in
  let before_seqs = Procedure1.sequences proc1 in
  let targets = proc1.Procedure1.t0_detected in
  let post, compaction_seconds =
    timed (fun () ->
        span "scheme.compaction" (fun () ->
            Postprocess.run ~passes ~operators ~obs ~known:(Procedure1.known proc1)
              ~n ~targets universe before_seqs))
  in
  let after_seqs = post.Postprocess.kept in
  let after = summary_of_sequences after_seqs in
  let coverage_verified =
    (not verify)
    || span "scheme.verify" (fun () ->
           verify_coverage ~obs ~operators ~n universe targets after_seqs)
  in
  {
    circuit_name = Bist_circuit.Netlist.circuit_name (Universe.circuit universe);
    n;
    t0_length = Tseq.length t0;
    total_faults = Universe.size universe;
    detected_by_t0 = Bitset.cardinal targets;
    before = summary_of_sequences before_seqs;
    after;
    sequences = after_seqs;
    expanded_total_length =
      Ops.expansion_factor ~operators ~n * after.total_length;
    proc1_seconds;
    compaction_seconds;
    simulate_t0_seconds;
    coverage_verified;
  }

let better a b =
  let key r = (r.after.max_length, r.after.total_length, r.n) in
  if compare (key a) (key b) <= 0 then a else b

let best_n ?(strategy = Procedure2.paper_strategy) ?(ns = [ 2; 4; 8; 16 ])
    ?(obs = Bist_obs.Obs.null) ~seed ~t0 universe =
  match ns with
  | [] -> invalid_arg "Scheme.best_n: empty n list"
  | n0 :: rest ->
    let table = simulate_t0 ~obs universe t0 in
    let execute n = execute ~strategy ~obs ~table ~seed ~n ~t0 universe in
    List.fold_left (fun best n -> better best (execute n)) (execute n0) rest

let ratio_total run =
  float_of_int run.after.total_length /. float_of_int run.t0_length

let ratio_max run =
  float_of_int run.after.max_length /. float_of_int run.t0_length
