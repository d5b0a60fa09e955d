(* Scenario: diagnosing a testability problem before wasting ATPG time.

   A circuit with an X-locked state loop silently caps fault coverage:
   no input sequence can ever initialize the loop under three-valued
   simulation, so every fault needing it is undetectable. The structural
   linter finds this statically; this example shows the lint report, the
   corroborating fault-simulation evidence, and the failing synchronizing-
   sequence search — then the fixed circuit passing all three. *)

let broken_text =
  "# accumulator without a reset\n\
   INPUT(d)\n\
   OUTPUT(p)\n\
   q = DFF(nx)\n\
   nx = XOR(q, d)\n\
   p = BUF(q)\n\
   orphan = NOT(d)\n"

let fixed_text =
  "# accumulator with a synchronous clear\n\
   INPUT(d)\n\
   INPUT(clr)\n\
   OUTPUT(p)\n\
   OUTPUT(dbg)\n\
   q = DFF(nx)\n\
   nclr = NOT(clr)\n\
   x = XOR(q, d)\n\
   nx = AND(x, nclr)\n\
   p = BUF(q)\n\
   dbg = NOT(d)\n"

let examine name text =
  let circuit = Bist_circuit.Bench_parser.parse_string ~name text in
  Format.printf "=== %s ===@." name;
  let report = Bist_circuit.Validate.check circuit in
  Format.printf "%a" (Bist_circuit.Validate.pp circuit) report;

  (* Corroborate with dynamics: coverage ceiling under heavy random test. *)
  let universe = Bist_fault.Universe.collapsed circuit in
  let rng = Bist_util.Rng.create 7 in
  let seq =
    Bist_logic.Tseq.random_binary rng
      ~width:(Bist_circuit.Netlist.num_inputs circuit)
      ~length:500
  in
  let outcome = Bist_fault.Fsim.run universe seq in
  Format.printf "random 500-vector coverage: %d / %d faults@."
    (Bist_util.Bitset.cardinal outcome.Bist_fault.Fsim.detected)
    (Bist_fault.Universe.size universe);

  (* And with the synchronizing-sequence search. *)
  let rng = Bist_util.Rng.create 7 in
  (match Bist_hw.Sync.find_sequence ~attempts:16 ~max_length:32 ~rng circuit with
   | None -> Format.printf "synchronizing sequence: none found (as predicted)@."
   | Some s ->
     Format.printf "synchronizing sequence: %s@."
       (String.concat " " (Bist_logic.Tseq.to_strings s)));
  Format.printf "@."

let () =
  examine "broken" broken_text;
  examine "fixed" fixed_text
