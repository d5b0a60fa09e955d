module Checkpoint = Bist_resilience.Checkpoint
module Io = Checkpoint.Io
module Ctl = Bist_resilience.Ctl
module Cancel = Bist_resilience.Cancel
module Deadline = Bist_resilience.Deadline
module Campaign = Bist_inject.Campaign

exception Bad_job of string

type outcome = Finished of string | Preempted

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_job m)) fmt

(* A named job resolves known names only (registry, teaching,
   workloads — Loader.find_named, which never touches the filesystem). A
   job spec is data from the network, and letting it open arbitrary
   server-side file paths would be both a correctness hazard (client and
   server filesystems differ) and an information leak. A payload job
   parses the submitted bytes — and this function runs only in the
   forked worker, inside its Sandbox rlimits, never in the server
   process. *)
let resolve_circuit = function
  | Protocol.Named spec -> (
    match Bist_bench.Loader.find_named spec with
    | Some circuit -> circuit
    | None ->
      bad "unknown circuit %S (registry, teaching and workload names only)" spec)
  | Protocol.Inline { name; format; text } -> (
    if String.length text > Protocol.max_netlist_bytes then
      (* The protocol decoder already enforces this cap; keeping it here
         too means a worker handed bytes by any other path (a manifest
         edited on disk) still refuses deterministically. *)
      bad "netlist payload of %d bytes exceeds the %d-byte cap"
        (String.length text) Protocol.max_netlist_bytes;
    let fmt =
      match format with
      | Protocol.Bench -> Bist_bench.Loader.Bench
      | Protocol.Blif -> Bist_bench.Loader.Blif
    in
    match Bist_bench.Loader.parse_payload ~format:fmt ~name text with
    | circuit -> circuit
    | exception Bist_circuit.Bench_parser.Parse_error { line; message } ->
      bad "payload netlist %S line %d: %s" name line message
    | exception Bist_circuit.Blif_parser.Parse_error { line; message } ->
      bad "payload netlist %S line %d: %s" name line message)

(* A named job is fingerprinted by its canonical bench text, so daemon
   checkpoints stay interchangeable with CLI --checkpoint files. A
   payload job is fingerprinted by the raw payload bytes: the identity
   that migrates with the job is exactly the text the tenant submitted,
   and a migrated worker re-parsing the same bytes resumes
   bit-identically. *)
let fingerprint_of cref circuit =
  match cref with
  | Protocol.Named _ ->
    Bist_resilience.Crc32.string (Bist_circuit.Bench_writer.to_string circuit)
  | Protocol.Inline { text; _ } -> Bist_resilience.Crc32.string text

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* An existing checkpoint is an attempt to save work, never a
   prerequisite: anything wrong with it (damaged file, different
   circuit, different parameters) means "start from scratch", not "fail
   the job" — determinism makes the restart correct, just slower. *)
let load_checkpoint ~kind ~circuit ~fingerprint ~path decode =
  if not (Sys.file_exists path) then None
  else
    match
      let header = Checkpoint.load path in
      Checkpoint.ensure ~kind ~circuit ~fingerprint header;
      decode header.Checkpoint.payload
    with
    | state -> Some state
    | exception (Checkpoint.Corrupt _ | Checkpoint.Mismatch _) ->
      remove_quietly path;
      None

(* The leg loop shared by the resumable job kinds: run with a
   per-leg deadline, persist the snapshot at every preemption, stop only
   when the cancel token (worker drain / SIGTERM) fired. The deadline is
   progress-gated (Ctl), so every leg commits at least one step and the
   loop terminates for any interval. *)
let legs ~interval ~cancel ~save ~run resume0 =
  let rec go resume =
    let ctl = Ctl.create ~deadline:(Deadline.after interval) ~cancel () in
    match run ~ctl resume with
    | Result.Ok output -> Finished output
    | Result.Error snapshot ->
      save snapshot;
      if Cancel.requested cancel then Preempted else go (Some snapshot)
  in
  go resume0

(* tgen: the Bist_tgen.Run stage machine, same checkpoint payload as
   bistgen --checkpoint — a daemon job and a CLI run can even resume
   each other's files. *)

(* Daemon jobs keep the SAT tail off: the job protocol predates it and
   the defaults must stay bit-identical. *)
let tgen_params ~seed ~directed ~trials =
  { Bist_tgen.Run.seed; directed; trials; sat_budget = 0; sat_frames = 8;
    sat_conflicts = Bist_sat.Satgen.default_conflicts }

let run_tgen ~obs ~checkpoint ~interval ~cancel ~circuit:spec ~seed ~directed
    ~trials =
  let circuit = resolve_circuit spec in
  let name = Bist_circuit.Netlist.circuit_name circuit in
  let fingerprint = fingerprint_of spec circuit in
  let universe = Bist_fault.Universe.collapsed circuit in
  let params = tgen_params ~seed ~directed ~trials in
  let resume0 =
    load_checkpoint ~kind:"tgen" ~circuit:name ~fingerprint ~path:checkpoint
      (Bist_tgen.Run.decode_payload params)
  in
  let save stage =
    Checkpoint.save ~path:checkpoint
      { Checkpoint.kind = "tgen"; circuit = name; fingerprint;
        payload = Bist_tgen.Run.encode_payload params stage }
  in
  let run ~ctl resume =
    match Bist_tgen.Run.execute ~obs ~ctl ?resume params universe with
    | t0, _stats, _cstats ->
      remove_quietly checkpoint;
      Result.Ok (Bist_harness.Seq_io.to_string t0)
    | exception Bist_tgen.Run.Interrupted stage -> Result.Error stage
  in
  legs ~interval ~cancel ~save ~run resume0

(* inject: a single-circuit hardened campaign; the payload is the
   parameter echo plus the completed-trial list (Campaign's own codec). *)

let inject_config ~seed ~count ~n =
  if count < 1 then bad "inject count %d must be >= 1" count;
  if n < 1 then bad "inject n %d must be >= 1" n;
  { Campaign.default_config with seed; count; n }

let encode_inject_payload ~(config : Campaign.config) trials =
  let w = Io.writer () in
  Io.u32 w config.Campaign.seed;
  Io.u32 w config.Campaign.count;
  Io.u32 w config.Campaign.n;
  Campaign.encode_trials w trials;
  Io.contents w

let decode_inject_payload ~(config : Campaign.config) payload =
  let r = Io.reader payload in
  let echo what expected =
    let got = Io.r_u32 r in
    if got <> expected then
      raise
        (Checkpoint.Mismatch
           (Printf.sprintf "checkpoint was written with %s %d, this job uses %d"
              what got expected))
  in
  echo "seed" config.Campaign.seed;
  echo "count" config.Campaign.count;
  echo "n" config.Campaign.n;
  let trials = Campaign.decode_trials r in
  Io.expect_end r;
  trials

let run_inject ~obs ~checkpoint ~interval ~cancel ~circuit:spec ~seed ~count ~n =
  let config = inject_config ~seed ~count ~n in
  let circuit = resolve_circuit spec in
  let name = Bist_circuit.Netlist.circuit_name circuit in
  let fingerprint = fingerprint_of spec circuit in
  let resume0 =
    load_checkpoint ~kind:"inject" ~circuit:name ~fingerprint ~path:checkpoint
      (decode_inject_payload ~config)
  in
  let save trials =
    Checkpoint.save ~path:checkpoint
      { Checkpoint.kind = "inject"; circuit = name; fingerprint;
        payload = encode_inject_payload ~config trials }
  in
  let run ~ctl resume =
    let resume = Option.value resume ~default:[] in
    match Campaign.run ~config ~obs ~ctl ~resume ~name circuit with
    | campaign ->
      remove_quietly checkpoint;
      Result.Ok (Bist_harness.Inject_report.summary [ campaign ])
    | exception Campaign.Interrupted trials -> Result.Error trials
  in
  legs ~interval ~cancel ~save ~run resume0

(* faultsim: deterministic and comparatively cheap; it keeps no
   resumable state, so a migrated simulation simply recomputes. Only the
   cancel token is polled — an interval deadline would preempt work we
   cannot resume. *)

let faultsim_output ~obs ~ctl ~circuit:spec ~vectors =
  let circuit = resolve_circuit spec in
  let universe = Bist_fault.Universe.collapsed circuit in
  let seq =
    try Bist_harness.Seq_io.parse vectors
    with Bist_harness.Seq_io.Parse_error { line; message } ->
      bad "vectors line %d: %s" line message
  in
  let tbl = Bist_fault.Fault_table.compute ~obs ?ctl universe seq in
  Printf.sprintf "detected %d / %d faults (coverage %.2f%%)\n"
    (Bist_fault.Fault_table.num_detected tbl)
    (Bist_fault.Universe.size universe)
    (100.0 *. Bist_fault.Fault_table.coverage tbl)

let run_job ?(obs = Bist_obs.Obs.null) ~checkpoint ~interval ~cancel spec =
  match spec with
  | Protocol.Tgen { circuit; seed; directed; trials } ->
    run_tgen ~obs ~checkpoint ~interval ~cancel ~circuit ~seed ~directed ~trials
  | Protocol.Inject { circuit; seed; count; n } ->
    run_inject ~obs ~checkpoint ~interval ~cancel ~circuit ~seed ~count ~n
  | Protocol.Faultsim { circuit; vectors } -> (
    let ctl = Ctl.create ~cancel () in
    try Finished (faultsim_output ~obs ~ctl:(Some ctl) ~circuit ~vectors)
    with Ctl.Preempted _ -> Preempted)

let run_once ?(obs = Bist_obs.Obs.null) spec =
  match spec with
  | Protocol.Tgen { circuit; seed; directed; trials } ->
    let universe = Bist_fault.Universe.collapsed (resolve_circuit circuit) in
    let params = tgen_params ~seed ~directed ~trials in
    let t0, _, _ = Bist_tgen.Run.execute ~obs params universe in
    Bist_harness.Seq_io.to_string t0
  | Protocol.Inject { circuit; seed; count; n } ->
    let config = inject_config ~seed ~count ~n in
    let circuit = resolve_circuit circuit in
    let name = Bist_circuit.Netlist.circuit_name circuit in
    Bist_harness.Inject_report.summary [ Campaign.run ~config ~obs ~name circuit ]
  | Protocol.Faultsim { circuit; vectors } ->
    faultsim_output ~obs ~ctl:None ~circuit ~vectors
