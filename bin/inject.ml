(* inject: fault-injection campaigns against the BIST hardware session.
   Each campaign injects seeded faults into the memory / controller /
   MISR model and audits the session's self-checking against a clean
   golden run: every fault must be corrected, or detected and reported —
   never silently escape. *)

open Cmdliner
module Campaign = Bist_inject.Campaign
module Session = Bist_hw.Session
module Checkpoint = Bist_resilience.Checkpoint
module Ckio = Bist_resilience.Checkpoint.Io

let defense_of_name = function
  | "hardened" -> Ok Session.hardened
  | "default" -> Ok Session.default_defense
  | "undefended" -> Ok Session.undefended
  | "no-parity" -> Ok { Session.hardened with ecc = Bist_hw.Ecc.No_ecc }
  | "hamming" -> Ok { Session.hardened with ecc = Bist_hw.Ecc.Hamming_sec }
  | s ->
    Error
      (Printf.sprintf
         "unknown defense %S (expected hardened, default, undefended, no-parity, hamming)"
         s)

(* Campaigns iterate over registry entries; circuits resolved from
   files or other loader names are wrapped as unscaled ad-hoc entries so
   one campaign loop serves both. *)
let entry_of_spec spec =
  match Bist_bench.Registry.find spec with
  | Some entry -> entry
  | None -> (
    match Bist_bench.Loader.resolve spec with
    | circuit ->
      let name = Bist_circuit.Netlist.circuit_name circuit in
      { Bist_bench.Registry.name; paper_name = name;
        circuit = (fun () -> circuit); scaled = false }
    | exception Bist_bench.Loader.Usage_error message ->
      Printf.eprintf "error: %s\n" message;
      exit 2)

let resolve_circuits specs =
  match specs with
  | [] -> [ Bist_bench.Registry.s27 ]
  | [ "all" ] -> Bist_bench.Registry.all ()
  | specs -> List.map entry_of_spec specs

(* The inject checkpoint covers the whole multi-circuit invocation: a
   parameter echo (seed, count, defense name, n, the circuit list — a
   resume must re-request the same campaign set), the finished campaigns
   as (name, sync_found, trials) triples, and the in-flight circuit's
   completed trials. The header's circuit field is the joined name list
   and the fingerprint hashes every circuit's canonical bench text. *)

let encode_inject_payload ~config ~defense_name ~names ~completed ~current =
  let w = Ckio.writer () in
  Ckio.u32 w config.Campaign.seed;
  Ckio.u32 w config.Campaign.count;
  Ckio.string w defense_name;
  Ckio.u32 w config.Campaign.n;
  Ckio.list w Ckio.string names;
  Ckio.list w
    (fun w (c : Campaign.t) ->
      Ckio.string w c.circuit_name;
      Ckio.bool w c.sync_found;
      Campaign.encode_trials w c.trials)
    completed;
  Campaign.encode_trials w current;
  Ckio.contents w

let decode_inject_payload ~config ~defense_name ~names payload =
  let r = Ckio.reader payload in
  let echo_int what expected =
    let got = Ckio.r_u32 r in
    if got <> expected then
      raise
        (Checkpoint.Mismatch
           (Printf.sprintf
              "checkpoint was written with %s %d, this run uses %d — \
               re-invoke with the original parameters"
              what got expected))
  in
  echo_int "--seed" config.Campaign.seed;
  echo_int "--count" config.Campaign.count;
  let got_defense = Ckio.r_string r in
  if got_defense <> defense_name then
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf "checkpoint was written with --defense %s, this run \
                          uses %s" got_defense defense_name));
  echo_int "--n" config.Campaign.n;
  let got_names = Ckio.r_list r Ckio.r_string in
  if got_names <> names then
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf "checkpoint covers circuits [%s], this run requests \
                          [%s]"
            (String.concat ", " got_names)
            (String.concat ", " names)));
  let completed =
    Ckio.r_list r (fun r ->
        let name = Ckio.r_string r in
        let sync_found = Ckio.r_bool r in
        let trials = Campaign.decode_trials r in
        Campaign.rebuild ~name ~config ~sync_found trials)
  in
  let current = Campaign.decode_trials r in
  Ckio.expect_end r;
  if List.length completed > List.length names then
    raise
      (Checkpoint.Corrupt "checkpoint lists more finished campaigns than \
                           circuits");
  (completed, current)

let run_campaigns ~config ~defense_name ~obs ?pool ~ctl ~checkpoint ~resume
    entries =
  let circuits =
    List.map
      (fun (e : Bist_bench.Registry.entry) -> (e.name, e.circuit ()))
      entries
  in
  let names = List.map fst circuits in
  let joined = String.concat "," names in
  let fingerprint =
    Bist_resilience.Crc32.string
      (String.concat "\n"
         (List.map
            (fun (_, c) -> Bist_circuit.Bench_writer.to_string c)
            circuits))
  in
  let completed0, current0 =
    match resume with
    | None -> ([], [])
    | Some path ->
      Bist_obs.Obs.span obs ~cat:"checkpoint" "checkpoint.load"
        ~args:(fun () -> [ ("path", path) ])
        (fun () ->
          let header = Checkpoint.load path in
          Checkpoint.ensure ~kind:"inject" ~circuit:joined ~fingerprint header;
          decode_inject_payload ~config ~defense_name ~names
            header.Checkpoint.payload)
  in
  let preempt ~completed ~current =
    (match checkpoint with
    | None -> ()
    | Some path ->
      Bist_obs.Obs.span obs ~cat:"checkpoint" "checkpoint.save"
        ~args:(fun () -> [ ("path", path) ])
        (fun () ->
          Checkpoint.save ~path
            { Checkpoint.kind = "inject"; circuit = joined; fingerprint;
              payload =
                encode_inject_payload ~config ~defense_name ~names ~completed
                  ~current }));
    raise (Bist_cli.Preempted_run { reason = Bist_cli.stop_reason ctl; checkpoint })
  in
  let done_campaigns = ref completed0 in
  let skip = List.length completed0 in
  let pending = List.filteri (fun i _ -> i >= skip) circuits in
  List.iteri
    (fun i (name, circuit) ->
      let resume_trials = if i = 0 then current0 else [] in
      match
        Campaign.run ~config ~obs ?pool ?ctl ~resume:resume_trials ~name
          circuit
      with
      | c -> done_campaigns := !done_campaigns @ [ c ]
      | exception Campaign.Interrupted trials ->
        preempt ~completed:!done_campaigns ~current:trials)
    pending;
  (match checkpoint with
  | Some path when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  !done_campaigns

let print_campaigns ~verbose campaigns =
  print_string (Bist_harness.Inject_report.summary campaigns);
  List.iter
    (fun (c : Campaign.t) ->
      if verbose then begin
        Printf.printf "\n%s by fault kind:\n" c.circuit_name;
        print_string (Bist_harness.Inject_report.breakdown c)
      end;
      List.iter
        (fun e -> Printf.printf "  escape [%s]: %s\n" c.circuit_name e)
        (Bist_harness.Inject_report.escapes c))
    campaigns

(* The smoke campaign is the acceptance gate wired into `make smoke`:
   the hardened s27 campaign must end with zero escapes and zero benign
   samples, and the same campaign without the parity code must produce
   escapes — proving the defense is load-bearing, not decorative. *)
let smoke seed count =
  let entry = Bist_bench.Registry.s27 in
  let circuit = entry.circuit () in
  let config = { Campaign.default_config with seed; count } in
  let hardened = Campaign.run ~config ~name:entry.name circuit in
  let no_parity =
    Campaign.run
      ~config:
        { config with defense = { Session.hardened with ecc = Bist_hw.Ecc.No_ecc } }
      ~name:(entry.name ^ " (no parity)") circuit
  in
  print_string (Bist_harness.Inject_report.summary [ hardened; no_parity ]);
  print_newline ();
  print_string (Bist_harness.Inject_report.breakdown hardened);
  let ok =
    hardened.escaped = 0 && hardened.benign = 0
    && hardened.corrected + hardened.detected = count
    && no_parity.escaped > 0
  in
  if ok then begin
    Printf.printf
      "\nsmoke: PASS — %d/%d faults corrected or detected, 0 escapes; \
       disabling parity escapes %d\n"
      (hardened.corrected + hardened.detected)
      count no_parity.escaped;
    0
  end
  else begin
    Printf.printf
      "\nsmoke: FAIL — corrected %d, detected %d, benign %d, escaped %d of %d \
       (no-parity escapes %d, expected > 0)\n"
      hardened.corrected hardened.detected hardened.benign hardened.escaped count
      no_parity.escaped;
    1
  end

let main circuits seed count defense n smoke_flag verbose jobs trace stats
    deadline checkpoint resume =
  Bist_cli.require_positive ~flag:"--count" count;
  Bist_cli.require_positive ~flag:"-n" n;
  match defense_of_name defense with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    2
  | Ok defense_cfg ->
    if smoke_flag then smoke seed count
    else begin
      let config =
        { Campaign.default_config with seed; count; defense = defense_cfg; n }
      in
      let pool = Bist_cli.pool_of_jobs jobs in
      let ctl = Bist_cli.make_ctl ~deadline ~checkpoint in
      let campaigns =
        Bist_cli.with_obs ~trace ~stats (fun obs ->
            run_campaigns ~config ~defense_name:defense ~obs ?pool ~ctl
              ~checkpoint ~resume (resolve_circuits circuits))
      in
      print_campaigns ~verbose campaigns;
      let escaped = List.exists (fun (c : Campaign.t) -> c.escaped > 0) campaigns in
      if escaped then 1 else 0
    end

let circuits_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"CIRCUIT"
        ~doc:
          "Circuits to campaign over: registry names, teaching/workload \
           circuits or .bench/.blif files (default s27; \"all\" for the full \
           registry suite).")

let seed_arg =
  Arg.(value & opt int Campaign.default_config.seed
       & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed (campaigns are deterministic).")

let count_arg =
  Arg.(value & opt int Campaign.default_config.count
       & info [ "count" ] ~docv:"K" ~doc:"Number of faults injected per campaign.")

let defense_arg =
  Arg.(value & opt string "hardened"
       & info [ "defense" ] ~docv:"NAME"
           ~doc:"Defense configuration: hardened, default, undefended, no-parity, hamming.")

let n_arg =
  Arg.(value & opt int Campaign.default_config.n
       & info [ "n" ] ~docv:"N" ~doc:"Expansion repetition count.")

let smoke_arg =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"Run the seeded s27 acceptance campaign (hardened vs no-parity) and exit non-zero on any escape.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the per-fault-kind breakdown.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign trials (0 = auto: min(cores, 8); 1 \
           = sequential). Campaign results are identical for every value.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the campaigns (load it in \
           chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the per-phase timing summary to stderr.")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds. When it runs out the campaigns \
           stop at the next trial-wave boundary, write a checkpoint if \
           $(b,--checkpoint) is set, and exit with code 3.")

let checkpoint_arg =
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Where to write the resumable snapshot if the run is preempted \
           (deadline, SIGINT or SIGTERM). Written atomically; deleted on \
           successful completion. Not used by --smoke.")

let resume_arg =
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by an earlier preempted run \
           with the same parameters and circuit list. The campaign \
           results are identical to an uninterrupted run's.")

let () =
  let info =
    Cmd.info "inject" ~version:"1.0.0"
      ~doc:"Fault-injection campaigns and self-checking audit for the BIST hardware session"
  in
  let cmd =
    Cmd.v info
      Term.(
        const main $ circuits_arg $ seed_arg $ count_arg $ defense_arg $ n_arg
        $ smoke_arg $ verbose_arg $ jobs_arg $ trace_arg $ stats_arg
        $ deadline_arg $ checkpoint_arg $ resume_arg)
  in
  Bist_cli.main
    ~bad_input:(function
      | Bist_harness.Seq_io.Parse_error _
      | Bist_circuit.Bench_parser.Parse_error _
      | Bist_circuit.Blif_parser.Parse_error _
      | Checkpoint.Corrupt _ | Checkpoint.Mismatch _ -> true
      | _ -> false)
    (fun () -> Cmd.eval' ~catch:false ~term_err:2 cmd)
