(* lint: static-analysis gate over netlists. With no arguments, lints
   every registry circuit — the CI configuration. Exit status: 0 when no
   error findings and the warning total stays within --max-warnings,
   1 otherwise, 2 on usage errors. *)

open Cmdliner
module Lint = Bist_analyze.Lint
module Untestable = Bist_analyze.Untestable

(* A circuit that fails to parse (or to validate structurally) still
   yields a report — with a single error finding — so one bad file in a
   batch doesn't mask the results of the others. *)
let report_of ?sat spec =
  let broken category message =
    {
      Lint.circuit = Filename.remove_extension (Filename.basename spec);
      findings = [ { Lint.severity = Lint.Error; category; message; nodes = [] } ];
    }
  in
  if Sys.file_exists spec then
    match Bist_bench.Loader.load_file spec with
    | circuit -> Lint.run ?sat circuit
    | exception Bist_circuit.Bench_parser.Parse_error { line; message }
    | exception Bist_circuit.Blif_parser.Parse_error { line; message } ->
      broken "parse-error" (Printf.sprintf "line %d: %s" line message)
    | exception Failure message -> broken "invalid-netlist" message
    | exception Bist_bench.Loader.Usage_error message ->
      Printf.eprintf "error: %s\n" message;
      exit 2
  else
    match Bist_bench.Loader.find_named spec with
    | Some circuit -> Lint.run ?sat circuit
    | None ->
      Printf.eprintf
        "error: %S is neither a file nor a known circuit (try s27, x298, \
         counter3, ...)\n"
        spec;
      exit 2

let run specs json max_warnings quiet sat sat_frames sat_conflicts sat_cap =
  let sat =
    if not sat then None
    else
      Some
        {
          Untestable.default_exact_config with
          Untestable.frames = sat_frames;
          max_conflicts = sat_conflicts;
          sat_cap;
        }
  in
  let reports =
    match specs with
    | [] ->
      List.map
        (fun (e : Bist_bench.Registry.entry) -> Lint.run ?sat (e.circuit ()))
        (Bist_bench.Registry.all ())
    | specs -> List.map (report_of ?sat) specs
  in
  if json then
    print_endline
      ("[" ^ String.concat "," (List.map Lint.to_json reports) ^ "]")
  else
    List.iter
      (fun r ->
        let visible =
          if quiet then
            { r with Lint.findings =
                List.filter (fun f -> f.Lint.severity <> Lint.Info) r.Lint.findings }
          else r
        in
        Format.printf "%a" Lint.pp visible)
      reports;
  let errors = List.fold_left (fun acc r -> acc + Lint.errors r) 0 reports in
  let warnings = List.fold_left (fun acc r -> acc + Lint.warnings r) 0 reports in
  if errors > 0 then begin
    Printf.eprintf "lint: %d error finding(s)\n" errors;
    exit 1
  end;
  if warnings > max_warnings then begin
    Printf.eprintf "lint: %d warning(s) exceed the budget of %d\n" warnings
      max_warnings;
    exit 1
  end

let specs_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"CIRCUIT"
        ~doc:
          "Registry names (s27, x298, ...), teaching or workload circuits, \
           or .bench / .blif files. Default: every registry circuit.")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON array of reports.")

let max_warnings_arg =
  Arg.(
    value & opt int 0
    & info [ "max-warnings" ] ~docv:"N"
        ~doc:"Fail (exit 1) when the warning total exceeds $(docv).")

let quiet_flag =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Hide info-level findings.")

let sat_flag =
  Arg.(
    value & flag
    & info [ "sat" ]
        ~doc:
          "Run the SAT-based exact untestability pass: proofs become exact \
           up to the frame bound and an unresolved residue is a warning.")

let sat_frames_arg =
  Arg.(
    value & opt int Untestable.default_exact_config.Untestable.frames
    & info [ "sat-frames" ] ~docv:"K"
        ~doc:"Time-frame bound of the SAT unrolling.")

let sat_conflicts_arg =
  Arg.(
    value & opt int Untestable.default_exact_config.Untestable.max_conflicts
    & info [ "sat-conflicts" ] ~docv:"N"
        ~doc:"Per-solve conflict budget before a fault is left unknown.")

let sat_cap_arg =
  Arg.(
    value & opt int (-1)
    & info [ "sat-cap" ] ~docv:"N"
        ~doc:
          "Limit the SAT pass to the first $(docv) undischarged faults \
           (negative: no cap).")

let () =
  let info =
    Cmd.info "lint" ~version:"1.0.0"
      ~doc:"Static testability analysis and structural diagnostics for netlists"
  in
  (* ~term_err:2 and Bist_cli.exit_code align usage errors with the
     repo-wide exit contract: 0 clean, 1 findings/over budget, 2 usage. *)
  exit
    (Bist_cli.exit_code
       (Cmd.eval ~term_err:2
          (Cmd.v info
             Term.(
               const run $ specs_arg $ json_flag $ max_warnings_arg $ quiet_flag
               $ sat_flag $ sat_frames_arg $ sat_conflicts_arg $ sat_cap_arg))))
