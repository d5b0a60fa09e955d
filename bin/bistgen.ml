(* bistgen: command-line front end to the subsequence-expansion BIST
   library. Circuits are named registry entries (s27, x298, ...) or paths
   to .bench / .blif files; sequences are text files, one vector per
   line. *)

open Cmdliner

let resolve_circuit = Bist_bench.Loader.resolve

let circuit_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT"
        ~doc:
          "Registry name (s27, x298, ...), teaching or workload circuit, or \
           a .bench / .blif file.")

let seed_arg =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* -n below 1 is a usage error (exit 2), checked before any work. *)
let positive_n n =
  Bist_cli.require_positive ~flag:"-n" n;
  n

let n_arg =
  Term.(
    const positive_n
    $ Arg.(
        value & opt int 4
        & info [ "n" ] ~docv:"N"
            ~doc:"Repetition count of the expansion (Sexp = 8nL)."))

let universe_of circuit = Bist_fault.Universe.collapsed circuit

(* --jobs 0 (the printed default) means "auto": min(cores, 8). A width
   of 1 yields no pool, i.e. the sequential path. *)
let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for fault simulation (0 = auto: min(cores, 8); 1 = \
           sequential). Results are bit-identical for every value.")

(* Observability: --trace buffers Chrome trace events, --stats prints the
   per-phase summary (Bist_cli.with_obs). *)

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run (load it in \
           chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the per-phase timing summary to stderr.")

(* Preemption and checkpointing: --deadline bounds the wall-clock budget,
   --checkpoint names where a preempted run serializes its progress,
   --resume continues from such a file (Bist_cli.make_ctl arms them). *)

module Checkpoint = Bist_resilience.Checkpoint

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds. When it runs out the command \
           stops at the next safe point, writes a checkpoint if \
           $(b,--checkpoint) is set, and exits with code 3.")

let checkpoint_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Where to write the resumable snapshot if the run is preempted \
           (deadline, SIGINT or SIGTERM). Written atomically; deleted on \
           successful completion.")

let resume_arg =
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by an earlier preempted run \
           of the same command on the same circuit with the same \
           parameters. The final result is bit-identical to an \
           uninterrupted run.")

let fingerprint_of circuit =
  Bist_resilience.Crc32.string (Bist_circuit.Bench_writer.to_string circuit)

(* stats *)

let stats_cmd =
  let run spec =
    let circuit = resolve_circuit spec in
    Format.printf "%a@." Bist_circuit.Stats.pp (Bist_circuit.Stats.of_netlist circuit);
    let full = Bist_fault.Universe.full circuit in
    let collapsed = universe_of circuit in
    Format.printf "faults: %d uncollapsed, %d collapsed@."
      (Bist_fault.Universe.size full)
      (Bist_fault.Universe.size collapsed)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Circuit and fault-list statistics")
    Term.(const run $ circuit_arg)

(* lint *)

let lint_cmd =
  let run spec =
    let circuit = resolve_circuit spec in
    let report = Bist_analyze.Lint.run circuit in
    Format.printf "%a" Bist_analyze.Lint.pp report;
    if Bist_analyze.Lint.errors report > 0 || Bist_analyze.Lint.warnings report > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: structural diagnostics, provably untestable \
          faults, S-graph initialization risks and SCOAP testability \
          (see also the standalone lint executable for batch/JSON use)")
    Term.(const run $ circuit_arg)

(* faultsim *)

let seq_arg name doc =
  Arg.(required & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let faultsim_cmd =
  let run spec seq_file table jobs trace stats =
    let circuit = resolve_circuit spec in
    let universe = universe_of circuit in
    let seq = Bist_harness.Seq_io.load seq_file in
    let tbl =
      Bist_cli.with_obs ~trace ~stats (fun obs ->
          Bist_fault.Fault_table.compute ~obs ?pool:(Bist_cli.pool_of_jobs jobs) universe
            seq)
    in
    Format.printf "detected %d / %d faults (coverage %.2f%%)@."
      (Bist_fault.Fault_table.num_detected tbl)
      (Bist_fault.Universe.size universe)
      (100.0 *. Bist_fault.Fault_table.coverage tbl);
    if table then print_string (Bist_fault.Fault_table.render tbl)
  in
  let table_flag =
    Arg.(value & flag & info [ "table" ] ~doc:"Print the per-time-unit detection table.")
  in
  Cmd.v (Cmd.info "faultsim" ~doc:"Fault-simulate a sequence")
    Term.(const run $ circuit_arg $ seq_arg "seq" "Sequence file." $ table_flag
          $ jobs_arg $ trace_arg $ stats_arg)

(* tgen *)

(* The tgen checkpoint payload codec and the generate-then-compact stage
   machine live in Bist_tgen.Run, shared verbatim with the bistd daemon
   worker — one format, one resume semantics. *)

let tgen_cmd =
  let run spec seed out trials directed sat_budget sat_frames sat_conflicts
      jobs trace stats_flag deadline checkpoint resume =
    let circuit = resolve_circuit spec in
    let name = Bist_circuit.Netlist.circuit_name circuit in
    let fingerprint = fingerprint_of circuit in
    let universe = universe_of circuit in
    let params =
      { Bist_tgen.Run.seed; directed; trials; sat_budget; sat_frames;
        sat_conflicts }
    in
    let pool = Bist_cli.pool_of_jobs jobs in
    let ctl = Bist_cli.make_ctl ~deadline ~checkpoint in
    let t0, stats, cstats =
      Bist_cli.with_obs ~trace ~stats:stats_flag (fun obs ->
          let resumed =
            match resume with
            | None -> None
            | Some path ->
              Bist_obs.Obs.span obs ~cat:"checkpoint" "checkpoint.load"
                ~args:(fun () -> [ ("path", path) ])
                (fun () ->
                  let header = Checkpoint.load path in
                  Checkpoint.ensure ~kind:"tgen" ~circuit:name ~fingerprint
                    header;
                  Some
                    (Bist_tgen.Run.decode_payload params
                       header.Checkpoint.payload))
          in
          (* On preemption: serialize the stage we were in (if a path was
             given), then unwind through with_obs so a --trace of the
             truncated run is still flushed; main exits 3. *)
          match
            Bist_tgen.Run.execute ~obs ?pool ?ctl ?resume:resumed params
              universe
          with
          | t0, stats, cstats ->
            (* A finished run must not leave a stale checkpoint behind — a
               later --resume against it would silently redo work. *)
            (match checkpoint with
            | Some path when Sys.file_exists path -> Sys.remove path
            | _ -> ());
            (t0, stats, cstats)
          | exception Bist_tgen.Run.Interrupted stage ->
            (match checkpoint with
            | None -> ()
            | Some path ->
              Bist_obs.Obs.span obs ~cat:"checkpoint" "checkpoint.save"
                ~args:(fun () -> [ ("path", path) ])
                (fun () ->
                  Checkpoint.save ~path
                    { Checkpoint.kind = "tgen"; circuit = name; fingerprint;
                      payload = Bist_tgen.Run.encode_payload params stage }));
            raise
              (Bist_cli.Preempted_run
                 { reason = Bist_cli.stop_reason ctl; checkpoint }))
    in
    Format.printf
      "T0: %d vectors (raw %d), detects %d / %d faults (%.2f%%)@."
      (Bist_logic.Tseq.length t0) cstats.Bist_tgen.Compaction.initial_length
      stats.Bist_tgen.Engine.detected stats.total_faults
      (100.0 *. float_of_int stats.detected /. float_of_int stats.total_faults);
    if sat_budget > 0 then
      Format.printf
        "SAT tail: %d fault(s) proved untestable within %d frames, %d \
         SAT-derived test(s) appended@."
        stats.Bist_tgen.Engine.sat_proved sat_frames
        stats.Bist_tgen.Engine.sat_tests;
    match out with
    | Some path ->
      Bist_harness.Seq_io.save t0 path;
      Format.printf "wrote %s@." path
    | None -> print_string (Bist_harness.Seq_io.to_string t0)
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let trials_arg =
    Arg.(value & opt int 150 & info [ "compact-trials" ] ~doc:"Static-compaction trial budget.")
  in
  let directed_arg =
    Arg.(value & opt int 0
         & info [ "directed" ] ~docv:"K"
             ~doc:"Attack up to K surviving faults with the genetic directed search.")
  in
  let sat_budget_arg =
    Arg.(value & opt int 0
         & info [ "sat-budget" ] ~docv:"K"
             ~doc:"Hand up to K faults that survived every search phase to \
                   the bounded-exact SAT back end: UNSAT retires the fault, \
                   a model becomes a validated test appended to T0 (0 = off).")
  in
  let sat_frames_arg =
    Arg.(value & opt int 8
         & info [ "sat-frames" ] ~docv:"F"
             ~doc:"Time-frame bound of the SAT unrolling.")
  in
  let sat_conflicts_arg =
    Arg.(value & opt int Bist_sat.Satgen.default_conflicts
         & info [ "sat-conflicts" ] ~docv:"N"
             ~doc:"Per-solve conflict budget before a SAT query gives up.")
  in
  Cmd.v (Cmd.info "tgen" ~doc:"Generate and compact a deterministic sequence T0")
    Term.(const run $ circuit_arg $ seed_arg $ out_arg $ trials_arg $ directed_arg
          $ sat_budget_arg $ sat_frames_arg $ sat_conflicts_arg
          $ jobs_arg $ trace_arg $ stats_arg $ deadline_arg $ checkpoint_arg
          $ resume_arg)

(* dimacs / satgen: direct access to the SAT view of a circuit — the
   same encoder the lint --sat pass and the tgen SAT tail run on. *)

let find_fault universe circuit name =
  let n = Bist_fault.Universe.size universe in
  let rec go id =
    if id >= n then begin
      Printf.eprintf
        "error: no collapsed fault named %S (names are as lint prints \
         them, e.g. G5/0 or G7.in1/1)\n"
        name;
      exit 2
    end
    else
      let f = Bist_fault.Universe.get universe id in
      if Bist_fault.Fault.name circuit f = name then f else go (id + 1)
  in
  go 0

let fault_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "fault" ] ~docv:"NAME"
        ~doc:"Collapsed fault name, as printed by lint (e.g. G5/0, G7.in1/1).")

let frames_arg =
  Arg.(
    value & opt int 8
    & info [ "frames" ] ~docv:"F"
        ~doc:"Time frames unrolled from the all-X reset state.")

let dimacs_cmd =
  let run spec fault_name frames out =
    let circuit = resolve_circuit spec in
    let universe = universe_of circuit in
    let fault = find_fault universe circuit fault_name in
    let view = Bist_sat.Cnf.view ~frames circuit in
    let text = Bist_sat.Dimacs.to_string view fault in
    match out with
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc text);
      Format.printf "wrote %s@." path
    | None -> print_string text
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .cnf file.")
  in
  Cmd.v
    (Cmd.info "dimacs"
       ~doc:
         "Export the time-frame-expanded CNF of one fault's detection \
          query in DIMACS format (the header comments name the circuit, \
          fault, frame bound and the excitation/detection assumption \
          literals)")
    Term.(const run $ circuit_arg $ fault_arg $ frames_arg $ out_arg)

let satgen_cmd =
  let run spec fault_name frames conflicts out =
    let circuit = resolve_circuit spec in
    let universe = universe_of circuit in
    let fault = find_fault universe circuit fault_name in
    let view = Bist_sat.Cnf.view ~frames circuit in
    match
      Bist_sat.Satgen.solve_fault ~max_conflicts:conflicts view fault
    with
    | Bist_sat.Satgen.Unreachable ->
      Format.printf
        "%s: proved untestable (unreachable: no sequence of length <= %d \
         excites the fault site)@."
        fault_name frames
    | Bist_sat.Satgen.Blocked ->
      Format.printf
        "%s: proved untestable (blocked: no sequence of length <= %d \
         propagates the effect to an output)@."
        fault_name frames
    | Bist_sat.Satgen.Unknown ->
      Format.printf
        "%s: unknown within %d frames / %d conflicts (raise --frames or \
         --conflicts)@."
        fault_name frames conflicts;
      exit 1
    | Bist_sat.Satgen.Test seq ->
      Format.printf "%s: testable — %d-vector test (simulator-validated)@."
        fault_name (Bist_logic.Tseq.length seq);
      (match out with
      | Some path ->
        Bist_harness.Seq_io.save seq path;
        Format.printf "wrote %s@." path
      | None -> print_string (Bist_harness.Seq_io.to_string seq))
  in
  let conflicts_arg =
    Arg.(value & opt int Bist_sat.Satgen.default_conflicts
         & info [ "conflicts" ] ~docv:"N" ~doc:"Conflict budget per solve.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output sequence file.")
  in
  Cmd.v
    (Cmd.info "satgen"
       ~doc:
         "Decide one fault exactly (up to the frame bound): prove it \
          untestable or emit a simulator-validated detecting sequence")
    Term.(const run $ circuit_arg $ fault_arg $ frames_arg $ conflicts_arg
          $ out_arg)

(* expand *)

let expand_cmd =
  let run seq_file n =
    let seq = Bist_harness.Seq_io.load seq_file in
    print_string (Bist_harness.Seq_io.to_string (Bist_core.Ops.expand ~n seq))
  in
  Cmd.v (Cmd.info "expand" ~doc:"Print the expanded sequence Sexp (length 8nL)")
    Term.(const run $ seq_arg "seq" "Stored sequence file." $ n_arg)

(* select *)

let select_cmd =
  let run spec t0_file n seed fast out trace stats =
    let circuit = resolve_circuit spec in
    let universe = universe_of circuit in
    let t0 = Bist_harness.Seq_io.load t0_file in
    let strategy =
      if fast then Bist_core.Procedure2.fast_strategy
      else Bist_core.Procedure2.paper_strategy
    in
    let run_result =
      Bist_cli.with_obs ~trace ~stats (fun obs ->
          match n with
          | Some n ->
            Bist_core.Scheme.execute ~strategy ~seed ~n ~t0 ~obs universe
          | None -> Bist_core.Scheme.best_n ~strategy ~seed ~t0 ~obs universe)
    in
    let b = run_result in
    Format.printf
      "n=%d: before |S|=%d tot=%d max=%d; after |S|=%d tot=%d max=%d; coverage %s@."
      b.Bist_core.Scheme.n b.before.count b.before.total_length
      b.before.max_length b.after.count b.after.total_length b.after.max_length
      (if b.coverage_verified then "preserved" else "NOT PRESERVED");
    match out with
    | Some path ->
      Bist_harness.Seq_io.save_set b.sequences path;
      Format.printf "wrote %s@." path
    | None -> List.iter (fun s -> print_string (Bist_harness.Seq_io.to_string s ^ "--\n")) b.sequences
  in
  let n_opt =
    Term.(
      const (Option.map positive_n)
      $ Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N"
               ~doc:"Repetition count; omit to sweep {2,4,8,16} and keep the best."))
  in
  let fast_flag =
    Arg.(value & flag & info [ "fast" ] ~doc:"Use the fast Procedure-2 strategy.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output set file.")
  in
  Cmd.v (Cmd.info "select" ~doc:"Run Procedure 1 + static compaction on T0")
    Term.(const run $ circuit_arg $ seq_arg "t0" "Deterministic sequence T0."
          $ n_opt $ seed_arg $ fast_flag $ out_arg $ trace_arg $ stats_arg)

(* trace-check *)

let trace_check_cmd =
  let run path =
    match Bist_obs.Json_check.parse_file path with
    | Error message ->
      Printf.eprintf "error: %s: %s\n" path message;
      exit 1
    | Ok json ->
      (match Bist_obs.Json_check.member "traceEvents" json with
      | Some (Bist_obs.Json_check.List events) ->
        Format.printf "%s: valid trace-event JSON (%d events)@." path
          (List.length events)
      | Some _ ->
        Printf.eprintf "error: %s: \"traceEvents\" is not an array\n" path;
        exit 1
      | None ->
        Printf.eprintf "error: %s: missing \"traceEvents\" member\n" path;
        exit 1)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Trace JSON file written by --trace.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a --trace output file (JSON syntax + traceEvents array)")
    Term.(const run $ path_arg)

(* session *)

let session_cmd =
  let run spec set_file n =
    let circuit = resolve_circuit spec in
    let set = Bist_harness.Seq_io.load_set set_file in
    let report = Bist_hw.Session.run_exn ~n circuit set in
    Format.printf "%a@." Bist_hw.Session.pp_report report
  in
  Cmd.v (Cmd.info "session" ~doc:"Simulate the on-chip BIST session (memory, controller, MISR)")
    Term.(const run $ circuit_arg $ seq_arg "set" "Stored-sequence set file." $ n_arg)

(* baseline *)

let baseline_cmd =
  let run spec t0_file block =
    let circuit = resolve_circuit spec in
    let universe = universe_of circuit in
    let t0 = Bist_harness.Seq_io.load t0_file in
    let fl = Bist_baselines.Full_load.evaluate universe ~t0 in
    Format.printf "full-load: memory %d words, load %d cycles, coverage %.2f%%@."
      fl.Bist_baselines.Full_load.memory_words fl.load_cycles (100.0 *. fl.coverage);
    let pt = Bist_baselines.Partition.evaluate universe ~t0 ~block in
    Format.printf
      "partition(block=%d): %d blocks, total loaded %d, max block %d, coverage %s@."
      block pt.Bist_baselines.Partition.num_blocks pt.total_loaded
      pt.max_block_length
      (if pt.coverage_preserved then "preserved" else "LOST");
    let cycles = 8 * 4 * Bist_logic.Tseq.length t0 in
    List.iter
      (fun hold ->
        let r = Bist_baselines.Lfsr_bist.evaluate universe ~cycles ~hold in
        Format.printf "lfsr(hold=%d, %d cycles): coverage %.2f%%@." hold cycles
          (100.0 *. r.Bist_baselines.Lfsr_bist.coverage))
      [ 1; 4 ]
  in
  let block_arg =
    Arg.(value & opt int 32 & info [ "block" ] ~docv:"B" ~doc:"Partition block size.")
  in
  Cmd.v (Cmd.info "baseline" ~doc:"Evaluate the Section-1 baselines on T0")
    Term.(const run $ circuit_arg $ seq_arg "t0" "Deterministic sequence T0." $ block_arg)

(* optimize *)

let optimize_cmd =
  let run spec out =
    let circuit = resolve_circuit spec in
    let optimized = Bist_circuit.Opt.cleanup circuit in
    Format.eprintf "%d gates -> %d gates@."
      (Bist_circuit.Netlist.num_gates circuit)
      (Bist_circuit.Netlist.num_gates optimized);
    let text = Bist_circuit.Bench_writer.to_string optimized in
    match out with
    | Some path ->
      Bist_circuit.Bench_writer.to_file optimized path;
      Format.printf "wrote %s@." path
    | None -> print_string text
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .bench file.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Constant propagation + unobservable-logic sweep (behaviour-preserving)")
    Term.(const run $ circuit_arg $ out_arg)

(* convert *)

let convert_cmd =
  let run spec strict out =
    let circuit = resolve_circuit spec in
    match String.lowercase_ascii (Filename.extension out) with
    | ".bench" ->
      Bist_circuit.Bench_writer.to_file ~strict circuit out;
      Format.printf "wrote %s@." out
    | ".blif" ->
      Bist_circuit.Blif_writer.to_file ~strict circuit out;
      Format.printf "wrote %s@." out
    | _ ->
      Printf.eprintf
        "error: output %S must end in .bench or .blif (the extension picks \
         the format)\n"
        out;
      exit 2
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Refuse (instead of renaming) signal names the output format \
             cannot represent.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file; its extension (.bench or .blif) picks the format.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Re-serialize a circuit as .bench or .blif (sanitizing names by default)")
    Term.(const run $ circuit_arg $ strict_arg $ out_arg)

(* vcd *)

let vcd_cmd =
  let run spec seq_file out =
    let circuit = resolve_circuit spec in
    let seq = Bist_harness.Seq_io.load seq_file in
    Bist_sim.Vcd.dump_file circuit seq out;
    Format.printf "wrote %s (%d timesteps)@." out (Bist_logic.Tseq.length seq)
  in
  let out_arg =
    Arg.(value & opt string "trace.vcd" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .vcd file.")
  in
  Cmd.v (Cmd.info "vcd" ~doc:"Dump a fault-free simulation trace as a VCD waveform")
    Term.(const run $ circuit_arg $ seq_arg "seq" "Sequence to simulate." $ out_arg)

(* verilog *)

let verilog_cmd =
  let run width depth n out =
    let text =
      Bist_hw.Verilog.emit
        { Bist_hw.Verilog.module_name = "bist_expander"; width; depth; n }
    in
    match out with
    | Some path ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text);
      Format.printf "wrote %s@." path
    | None -> print_string text
  in
  let width_arg =
    Arg.(required & opt (some int) None & info [ "width" ] ~docv:"M" ~doc:"Circuit primary inputs.")
  in
  let depth_arg =
    Arg.(required & opt (some int) None & info [ "depth" ] ~docv:"D" ~doc:"Memory words (longest stored sequence).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .v file.")
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Emit synthesizable RTL for the on-chip expansion hardware")
    Term.(const run $ width_arg $ depth_arg $ n_arg $ out_arg)

(* figure1 *)

let figure1_cmd =
  let run spec t0_file n seed =
    let circuit = resolve_circuit spec in
    let universe = universe_of circuit in
    let t0 =
      match t0_file with
      | Some f -> Bist_harness.Seq_io.load f
      | None when Bist_circuit.Netlist.circuit_name circuit = "s27" ->
        Bist_bench.S27.t0 ()
      | None ->
        Printf.eprintf "error: --t0 is required for circuits other than s27\n";
        exit 2
    in
    print_string (Bist_harness.Figure1.render ~seed ~n ~t0 universe)
  in
  let t0_opt =
    Arg.(value & opt (some string) None & info [ "t0" ] ~docv:"FILE" ~doc:"T0 file (defaults to the paper's for s27).")
  in
  Cmd.v (Cmd.info "figure1" ~doc:"Render Figure 1 (subsequence windows over T0)")
    Term.(const run $ circuit_arg $ t0_opt $ n_arg $ seed_arg)

let () =
  let info =
    Cmd.info "bistgen" ~version:"1.0.0"
      ~doc:"Built-in test sequence generation by loading and expansion of test subsequences"
  in
  let group =
    Cmd.group info
      [ stats_cmd; lint_cmd; optimize_cmd; convert_cmd; faultsim_cmd;
        tgen_cmd; dimacs_cmd; satgen_cmd; expand_cmd; select_cmd;
        session_cmd; baseline_cmd; vcd_cmd; verilog_cmd; figure1_cmd;
        trace_check_cmd ]
  in
  (* ~catch:false so typed domain errors reach us instead of cmdliner's
     backtrace printer; each has a registered printer with the context
     (file/line, fault name) a user needs. *)
  Bist_cli.main
    ~bad_input:(function
      | Bist_harness.Seq_io.Parse_error _
      | Bist_circuit.Bench_parser.Parse_error _
      | Bist_circuit.Blif_parser.Parse_error _
      | Bist_circuit.Names.Invalid_name _
      | Bist_bench.Loader.Usage_error _
      | Bist_core.Procedure2.Undetected _
      | Bist_core.Procedure1.Undetected_target _
      | Checkpoint.Corrupt _ | Checkpoint.Mismatch _ -> true
      | _ -> false)
    (fun () -> Cmd.eval ~catch:false ~term_err:2 group)
