(* Scenario: the on-chip test session, cycle by cycle.

   Runs the hardware model end to end on s27: load each stored sequence
   into the test memory, let the controller FSM expand it (up/down
   address sweeps through the complement and shift muxes), drive the
   circuit at speed, and compact the responses into a MISR signature.
   Also demonstrates the controller/software equivalence that the test
   suite checks as a property. *)

let () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Bist_fault.Universe.collapsed circuit in
  let t0 = Bist_bench.S27.t0 () in
  let n = 2 in
  let run = Bist_core.Scheme.execute ~seed:7 ~n ~t0 universe in
  Format.printf "stored set for s27 (n = %d): %d sequences@." n
    run.Bist_core.Scheme.after.count;

  (* Hardware expansion equals the software definition. *)
  let memory =
    Bist_hw.Memory.create
      ~word_bits:(Bist_circuit.Netlist.num_inputs circuit)
      ~depth:(max 1 run.after.max_length) ()
  in
  List.iteri
    (fun i s ->
      Bist_hw.Memory.load_sequence_exn memory s;
      let controller = Bist_hw.Controller.start memory ~n in
      let hw = Bist_hw.Controller.emit_all controller in
      let sw = Bist_core.Ops.expand ~n s in
      Format.printf "  S%d: controller emitted %d vectors; equals Ops.expand: %b@."
        (i + 1) (Bist_logic.Tseq.length hw) (Bist_logic.Tseq.equal hw sw))
    run.sequences;

  (* The full session with MISR signatures. Starting from the unknown
     state contaminates the signature with X values, so — as the paper
     prescribes — a synchronizing prefix runs before each sequence with
     the signature window closed. *)
  let report = Bist_hw.Session.run_exn ~n circuit run.sequences in
  Format.printf "@.without synchronization:@.%a@." Bist_hw.Session.pp_report report;
  let rng = Bist_util.Rng.create 4 in
  (match Bist_hw.Sync.find_sequence ~rng circuit with
   | None -> Format.printf "no synchronizing sequence exists@."
   | Some sync ->
     Format.printf "synchronizing prefix (%d vectors): %s@."
       (Bist_logic.Tseq.length sync)
       (String.concat " " (Bist_logic.Tseq.to_strings sync));
     let report = Bist_hw.Session.run_exn ~sync ~n circuit run.sequences in
     Format.printf "with synchronization:@.%a@." Bist_hw.Session.pp_report report);

  (* Diagnosis resolution of the per-sequence pass/fail syndrome: how far
     can the tester narrow down which fault failed the chip? *)
  let expanded = List.map (Bist_core.Ops.expand ~n) run.sequences in
  let dict = Bist_fault.Dictionary.build universe expanded in
  let classes = Bist_fault.Dictionary.distinguishable_classes dict in
  Format.printf
    "fault dictionary: %d pass/fail syndromes over %d detected faults \
     (resolution %.2f)@."
    (List.length classes)
    (List.fold_left (fun acc c -> acc + List.length c) 0 classes)
    (Bist_fault.Dictionary.resolution dict);

  (* A faulty chip produces a different signature: inject a fault into
     the simulated circuit and re-run the same session. *)
  let fault = Bist_fault.Universe.get universe 0 in
  Format.printf "injecting %s and recomputing signatures:@."
    (Bist_fault.Fault.name circuit fault);
  let detected =
    List.exists
      (fun s ->
        Bist_fault.Fsim.detects circuit fault (Bist_core.Ops.expand ~n s))
      run.sequences
  in
  Format.printf "fault observable in at least one expanded sequence: %b@."
    detected
