module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Rng = Bist_util.Rng
module Fsim = Bist_fault.Fsim
module Fault_table = Bist_fault.Fault_table
module Universe = Bist_fault.Universe
module Obs = Bist_obs.Obs

exception Undetected_target of { fault_id : int; fault : string; udet : int }

let () =
  Printexc.register_printer (function
    | Undetected_target { fault_id; fault; udet } ->
      Some
        (Printf.sprintf
           "Procedure1.run: target fault %s (id %d) was not re-detected by \
            T0[0, %d] — the fault table and Procedure 2 disagree"
           fault fault_id udet)
    | _ -> None)

type selected = {
  seq : Tseq.t;
  target_fault : int;
  newly_detected : Bitset.t;
  proc2 : Procedure2.outcome;
}

type result = {
  selected : selected list;
  t0_detected : Bitset.t;
  total_simulated_time_units : int;
}

let pick_target ~fault_order ~rng table targets =
  match fault_order with
  | `Max_udet -> Fault_table.argmax_udet table ~targets
  | `Min_udet ->
    Bitset.fold
      (fun id best ->
        match (Fault_table.udet table id, best) with
        | None, _ -> best
        | Some _, None -> Some id
        | Some u, Some b ->
          let ub = Option.get (Fault_table.udet table b) in
          if u < ub then Some id else best)
      targets None
  | `Random ->
    let ids = Array.of_list (Bitset.elements targets) in
    if Array.length ids = 0 then None else Some (Rng.choose rng ids)

let run ?(strategy = Procedure2.paper_strategy) ?(operators = Ops.all_operators)
    ?(fault_order = `Max_udet) ?(obs = Obs.null) ?ctl ?table ~rng ~n ~t0 universe =
  let circuit = Universe.circuit universe in
  let table =
    match table with
    | None -> Fault_table.compute ~obs ?ctl universe t0
    | Some table ->
      if
        Fault_table.universe table != universe
        || not (Tseq.equal (Fault_table.sequence table) t0)
      then invalid_arg "Procedure1.run: table was computed for another universe or T0";
      table
  in
  let t0_detected = Fault_table.detected table in
  let targets = Bitset.copy t0_detected in
  let time_units = ref 0 in
  let selected = ref [] in
  let continue = ref true in
  while !continue do
    (* Safe point between targets: the scheme built so far is complete
       and nothing about the next target has been committed. *)
    Bist_resilience.Ctl.poll ctl;
    match pick_target ~fault_order ~rng table targets with
    | None -> continue := false
    | Some fid ->
      let fault = Universe.get universe fid in
      let udet =
        match Fault_table.udet table fid with
        | Some u -> u
        | None -> assert false (* targets only hold faults T0 detects *)
      in
      Obs.span obs ~cat:"proc1" "proc1.target"
        ~args:(fun () ->
          [ ("fault", Bist_fault.Fault.name circuit fault);
            ("fault_id", string_of_int fid); ("udet", string_of_int udet);
            ("remaining", string_of_int (Bitset.cardinal targets)) ])
        (fun () ->
          let proc2 =
            try
              Procedure2.find ~strategy ~operators ~obs ?ctl ~rng ~n ~t0 ~udet
                circuit fault
            with Procedure2.Undetected { fault; udet } ->
              (* Enrich with the universe id: the table said T0 detects
                 this fault at [udet], so this is an internal
                 inconsistency worth naming precisely. *)
              raise (Undetected_target { fault_id = fid; fault; udet })
          in
          let exp = Ops.expand_with ~operators ~n proc2.Procedure2.subsequence in
          time_units :=
            !time_units + (Tseq.length exp * ((Bitset.cardinal targets + 61) / 62));
          let outcome =
            Fsim.run ~obs ~targets
              ?block:(Ops.block_length ~operators ~n proc2.Procedure2.subsequence)
              universe exp
          in
          let newly = outcome.Fsim.detected in
          (* Procedure 2 guarantees the expansion detects its seeding fault. *)
          assert (Bitset.mem newly fid);
          Bitset.diff_into targets newly;
          time_units := !time_units + proc2.Procedure2.simulated_time_units;
          selected :=
            { seq = proc2.Procedure2.subsequence; target_fault = fid;
              newly_detected = newly; proc2 }
            :: !selected)
  done;
  Obs.count obs ~by:(List.length !selected) "proc1.sequences";
  {
    selected = List.rev !selected;
    t0_detected;
    total_simulated_time_units = !time_units;
  }

let sequences result = List.map (fun s -> s.seq) result.selected

(* Sequence i was simulated against F minus the faults the sequences
   before it dropped, and detected exactly its own [newly_detected]. *)
let known result =
  let met = Bitset.copy result.t0_detected in
  List.map
    (fun s ->
      let pair = (Bitset.copy met, s.newly_detected) in
      Bitset.diff_into met s.newly_detected;
      pair)
    result.selected

let total_length seqs = List.fold_left (fun acc s -> acc + Tseq.length s) 0 seqs

let max_length seqs = List.fold_left (fun acc s -> max acc (Tseq.length s)) 0 seqs
