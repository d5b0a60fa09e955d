(* The paper pipeline, run the way [Experiment.run_circuit] composes it
   (untraced), or layer by layer with a span around each layer call
   (traced). Both paths must produce the same T0 and stored sets. *)

module Tseq = Bist_logic.Tseq
module Rng = Bist_util.Rng
module Bitset = Bist_util.Bitset
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Fault_table = Bist_fault.Fault_table
module Engine = Bist_tgen.Engine
module Compaction = Bist_tgen.Compaction
module Scheme = Bist_core.Scheme
module Procedure1 = Bist_core.Procedure1
module Postprocess = Bist_core.Postprocess
module Ops = Bist_core.Ops
module Experiment = Bist_harness.Experiment

type circuit = {
  name : string;
  universe : Universe.t;
  budget : Experiment.budget;
  config : Engine.config;
}

(* Circuit construction and fault collapsing: the "load" layer. *)
let load_netlist netlist =
  let budget = Experiment.budget_for netlist in
  let config =
    { (Engine.default_config netlist) with
      max_length = budget.tgen_max_length;
      directed_budget = (if Bist_circuit.Netlist.size netlist < 1500 then 16 else 0) }
  in
  { name = Bist_circuit.Netlist.circuit_name netlist; universe = Universe.collapsed netlist;
    budget; config }

let load name =
  match Bist_bench.Registry.find name with
  | None -> failwith ("unknown registry circuit " ^ name)
  | Some entry -> load_netlist (entry.circuit ())

(* One unit of work: generate and compact T0 when [t0] is [None], then
   select stored sets for every n of [ns], seeding selection from the
   op's seed. *)
type job = { circuit : circuit; t0 : Tseq.t option; ns : int list }

type result = { job : job; t0 : Tseq.t; runs : Scheme.run list }

(* T0 generation uses the harness's seed for every workload seed: T0s
   generated per seed changed the pipeline's work by a fifth between
   seeds, which no bound on wall time could absorb. The workload seed
   drives Procedure 2's omission order instead. *)
let tgen_seed = 2026

let generate c =
  let rng = Rng.create tgen_seed in
  Engine.generate ~config:c.config ~rng c.universe

let compact c raw = Compaction.compact ~max_trials:c.budget.compaction_trials c.universe raw

let run_untraced ~seed jobs =
  List.map
    (fun job ->
      let c = job.circuit in
      let t0 =
        match job.t0 with
        | Some t0 -> t0
        | None -> fst (compact c (fst (generate c)))
      in
      let runs =
        List.map
          (fun n ->
            Scheme.execute ~strategy:c.budget.strategy ~seed:(seed + n) ~n ~t0
              c.universe)
          job.ns
      in
      { job; t0; runs })
    jobs

(* Work counts the layers return, summed over one op. *)
module Counts = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) key v =
    Hashtbl.replace t key (v +. Option.value ~default:0.0 (Hashtbl.find_opt t key))

  let to_list (t : t) = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
end

(* Scheme.execute's composition, one span per layer. *)
let traced_execute tr ~op ~counts ~strategy ~seed ~n ~t0 universe =
  let span name f = Span.record tr ~op name f in
  let add key v = Counts.add counts key (float_of_int v) in
  let operators = Ops.all_operators in
  let rng = Rng.create seed in
  let table = span "fault_table" (fun () -> Fault_table.compute universe t0) in
  add "fault_table.detected" (Fault_table.num_detected table);
  let p1 =
    span "proc1" (fun () ->
        Procedure1.run ~strategy ~operators ~fault_order:`Max_udet ~rng ~n ~t0
          universe)
  in
  let before = Procedure1.sequences p1 in
  add "proc1.selected" (List.length p1.selected);
  add "proc2.simulations"
    (List.fold_left (fun acc (s : Procedure1.selected) -> acc + s.proc2.simulations) 0
       p1.selected);
  add "proc2.time_units" p1.total_simulated_time_units;
  let targets = p1.t0_detected in
  let post =
    span "postprocess" (fun () ->
        Postprocess.run ~passes:Postprocess.default_passes ~operators ~n ~targets
          universe before)
  in
  add "postprocess.dropped" post.dropped;
  add "postprocess.input" (List.length before);
  add "postprocess.time_units" post.simulated_time_units;
  let kept = post.kept in
  let coverage_verified =
    span "verify" (fun () ->
        let remaining = Bitset.copy targets in
        List.iter
          (fun seq ->
            if not (Bitset.is_empty remaining) then begin
              let exp = Ops.expand_with ~operators ~n seq in
              add "verify.time_units" (Tseq.length exp);
              let o = Fsim.run ~targets:remaining ~stop_when_all_detected:true universe exp in
              Bitset.diff_into remaining o.detected
            end)
          kept;
        Bitset.is_empty remaining)
  in
  let after = Scheme.summary_of_sequences kept in
  { Scheme.circuit_name = Bist_circuit.Netlist.circuit_name (Universe.circuit universe);
    n; t0_length = Tseq.length t0; total_faults = Universe.size universe;
    detected_by_t0 = Bitset.cardinal targets;
    before = Scheme.summary_of_sequences before; after; sequences = kept;
    expanded_total_length = Ops.expansion_factor ~operators ~n * after.total_length;
    proc1_seconds = 0.0; compaction_seconds = 0.0; simulate_t0_seconds = 0.0;
    coverage_verified }

let run_traced tr ~op ~seed ~counts jobs =
  let span name f = Span.record tr ~op name f in
  let add key v = Counts.add counts key (float_of_int v) in
  span "op" (fun () ->
      List.map
        (fun job ->
          let c = job.circuit in
          span "circuit" (fun () ->
              let t0 =
                match job.t0 with
                | Some t0 -> t0
                | None ->
                  let raw, (st : Engine.stats) = span "tgen" (fun () -> generate c) in
                  add "tgen.rounds" st.rounds;
                  add "tgen.segments_accepted" st.segments_accepted;
                  add "tgen.raw_len" (Tseq.length raw);
                  let t0, (cs : Compaction.stats) = span "t0compact" (fun () -> compact c raw) in
                  add "t0compact.trials" cs.trials;
                  add "t0compact.accepted" cs.accepted;
                  t0
              in
              let runs =
                List.map
                  (fun n ->
                    span "scheme" (fun () ->
                        traced_execute tr ~op ~counts ~strategy:c.budget.strategy
                          ~seed:(seed + n) ~n ~t0 c.universe))
                  job.ns
              in
              { job; t0; runs }))
        jobs)

(* The paper's best-n rule without its run-time tie-break (which reads
   CPU seconds): smaller max length, then smaller total, then the
   earlier n. *)
let best runs =
  let key (r : Scheme.run) = (r.after.max_length, r.after.total_length) in
  match runs with
  | [] -> invalid_arg "best: no runs"
  | r :: rest -> List.fold_left (fun b r -> if key r < key b then r else b) r rest

let digest results =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b r.job.circuit.name;
      Buffer.add_string b (Bist_harness.Seq_io.to_string r.t0);
      List.iter
        (fun (run : Scheme.run) ->
          Buffer.add_string b (Printf.sprintf "n=%d\n" run.n);
          List.iter
            (fun s -> Buffer.add_string b (Bist_harness.Seq_io.to_string s ^ "--\n"))
            run.sequences)
        r.runs)
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The paper's guarantee, re-checked here: the expansions of every
   stored set together detect each fault T0 detects. *)
let covers results =
  List.for_all
    (fun r ->
      let u = r.job.circuit.universe in
      let f = (Fsim.run u r.t0).detected in
      List.for_all
        (fun (run : Scheme.run) ->
          let remaining = Bitset.copy f in
          List.iter
            (fun seq ->
              let exp = Ops.expand_with ~operators:Ops.all_operators ~n:run.n seq in
              let o = Fsim.run ~targets:remaining ~stop_when_all_detected:true u exp in
              Bitset.diff_into remaining o.detected)
            run.sequences;
          run.coverage_verified
          && Bitset.cardinal f = run.detected_by_t0
          && Bitset.is_empty remaining
          && run.after = Scheme.summary_of_sequences run.sequences)
        r.runs)
    results

type sim = {
  t0_len : int;
  tot : int;
  max_len : int;
  at_speed : int;
  detected : int;
  faults : int;
}

(* Table 5 quantities of the best run per circuit, pooled over circuits. *)
let sim results =
  List.fold_left
    (fun s r ->
      let b = best r.runs in
      { t0_len = s.t0_len + Tseq.length r.t0;
        tot = s.tot + b.after.total_length;
        max_len = s.max_len + b.after.max_length;
        at_speed = s.at_speed + b.expanded_total_length;
        detected = s.detected + b.detected_by_t0;
        faults = s.faults + b.total_faults })
    { t0_len = 0; tot = 0; max_len = 0; at_speed = 0; detected = 0; faults = 0 }
    results
