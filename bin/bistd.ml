(* bistd: the crash-safe multi-tenant generation daemon and its client.
   `serve` runs the daemon; `submit`, `wait`, `ping`, `stats`, `shutdown`
   and `quarantine` talk to it; `chaos` is the fault-injection harness for
   the daemon itself — truncated frames, garbage frames, pathologically
   slow clients, hostile netlist payloads — and asserts the daemon keeps
   serving through all of them. *)

open Cmdliner
module Server = Bist_daemon.Server
module Client = Bist_daemon.Client
module Protocol = Bist_daemon.Protocol
module Sandbox = Bist_daemon.Sandbox
module Frame = Bist_daemon.Frame

let err fmt = Printf.ksprintf (fun m -> Printf.eprintf "error: %s\n" m) fmt

(* ---------------------------------------------------------------- serve *)

let serve host port workers queue per_tenant interval grace spool port_file
    worker_mem worker_cpu worker_nofile worker_fsize poison verbose =
  if workers < 1 then begin
    err "--workers must be >= 1 (got %d)" workers;
    exit 2
  end;
  if queue < 1 then begin
    err "--queue must be >= 1 (got %d)" queue;
    exit 2
  end;
  if interval <= 0.0 then begin
    err "--interval must be positive (got %g)" interval;
    exit 2
  end;
  if poison < 1 then begin
    err "--poison must be >= 1 (got %d)" poison;
    exit 2
  end;
  (* 0 = leave that resource at the inherited limit. *)
  let opt v = if v = 0 then None else if v > 0 then Some v else (
    err "worker limits must be >= 0 (got %d)" v;
    exit 2)
  in
  let sandbox =
    { Sandbox.address_space_mb = opt worker_mem; cpu_seconds = opt worker_cpu;
      open_files = opt worker_nofile; file_size_mb = opt worker_fsize }
  in
  let cfg =
    { Server.default_config with
      host; port; max_workers = workers; queue_capacity = queue;
      per_tenant; checkpoint_interval = interval; term_grace = grace;
      spool; sandbox; poison_threshold = poison; verbose }
  in
  let on_ready ~port =
    match port_file with
    | None -> ()
    | Some path ->
      Bist_resilience.Atomic_io.write_file ~path (string_of_int port)
  in
  Server.run ~on_ready cfg;
  0

(* --------------------------------------------------------------- client *)

let with_client host port f =
  match Client.with_connection ~host ~port f with
  | code -> code
  | exception Unix.Unix_error (e, _, _) ->
    err "cannot reach bistd at %s:%d: %s" host port (Unix.error_message e);
    1
  | exception Frame.Protocol_error msg ->
    err "protocol: %s" msg;
    1

(* --payload FILE ships the netlist text itself instead of a server-side
   name: the daemon carries the bytes opaquely and only the sandboxed
   worker parses them. The format travels explicitly (picked here from
   the file extension) because the server never inspects the text. *)
let circuit_ref_of_args circuit payload =
  match payload with
  | None -> Protocol.Named circuit
  | Some path ->
    let format =
      match String.lowercase_ascii (Filename.extension path) with
      | ".bench" -> Protocol.Bench
      | ".blif" -> Protocol.Blif
      | ext ->
        err "--payload %S has unsupported extension %S (supported: %s)" path
          ext
          (String.concat ", " Bist_bench.Loader.supported_extensions);
        exit 2
    in
    let text =
      match Bist_resilience.Atomic_io.read_file ~path with
      | text -> text
      | exception Sys_error msg ->
        err "%s" msg;
        exit 2
    in
    if String.length text > Protocol.max_netlist_bytes then begin
      err "--payload %S is %d bytes; the daemon accepts at most %d" path
        (String.length text) Protocol.max_netlist_bytes;
      exit 2
    end;
    Protocol.Inline { name = Filename.basename path; format; text }

let spec_of_args job circuit payload seed directed trials vectors_file count n =
  let circuit = circuit_ref_of_args circuit payload in
  match job with
  | "tgen" -> Protocol.Tgen { circuit; seed; directed; trials }
  | "inject" -> Protocol.Inject { circuit; seed; count; n }
  | "faultsim" -> (
    match vectors_file with
    | None ->
      err "faultsim needs --vectors FILE";
      exit 2
    | Some path -> (
      match Bist_resilience.Atomic_io.read_file ~path with
      | vectors -> Protocol.Faultsim { circuit; vectors }
      | exception Sys_error msg ->
        err "%s" msg;
        exit 2))
  | other ->
    err "unknown job kind %S (expected tgen, faultsim or inject)" other;
    exit 2

(* A job's terminal reply: its result on stdout or in [output], or why
   it has none on stderr. *)
let report_verdict output = function
  | Protocol.Result { id; output = text } ->
    (match output with
    | None -> print_string text
    | Some path ->
      Bist_resilience.Atomic_io.write_file ~path text;
      Printf.eprintf "job %d done, wrote %s\n" id path);
    0
  | Protocol.Failed { id; reason } ->
    err "job %d failed: %s" id reason;
    1
  | Protocol.Quarantined { id; reason } ->
    err "job %d quarantined: %s" id reason;
    1
  | Protocol.Error { message } ->
    err "%s" message;
    1
  | _ ->
    err "protocol: unexpected reply to Wait";
    1

let submit host port job circuit payload seed directed trials vectors_file
    count n tenant deadline wait output =
  let spec =
    spec_of_args job circuit payload seed directed trials vectors_file count n
  in
  (match deadline with
  | Some d when d <= 0.0 ->
    err "--deadline must be positive (got %g)" d;
    exit 2
  | _ -> ());
  with_client host port (fun c ->
      if wait then
        match Client.submit_and_wait c ~tenant ?deadline spec with
        | Result.Error (reason, message) ->
          err "rejected (%s): %s" (Protocol.reject_reason_name reason) message;
          1
        | Result.Ok (_, reply) -> report_verdict output reply
      else
        match Client.request c (Protocol.Submit { tenant; deadline; spec }) with
        | Protocol.Accepted { id } ->
          Printf.printf "accepted job %d\n" id;
          0
        | Protocol.Rejected { reason; message } ->
          err "rejected (%s): %s" (Protocol.reject_reason_name reason) message;
          1
        | _ ->
          err "protocol: unexpected reply to Submit";
          1)

let wait host port id output =
  with_client host port (fun c ->
      report_verdict output (Client.request c (Protocol.Wait { id })))

let ping host port =
  with_client host port (fun c ->
      match Client.handshake c with
      | Result.Ok version ->
        Printf.printf "pong (protocol v%d)\n" version;
        0
      | Result.Error (server, client) ->
        err "daemon speaks protocol v%d, this client speaks v%d" server client;
        1)

(* ----------------------------------------------------------- quarantine *)

let quarantine_list host port =
  with_client host port (fun c ->
      match Client.request c Protocol.Quarantine_list with
      | Protocol.Quarantine_report [] ->
        print_endline "quarantine empty";
        0
      | Protocol.Quarantine_report entries ->
        List.iter
          (fun e ->
            Printf.printf "job %d tenant=%s kind=%s circuit=%s crashes=%d: %s\n"
              e.Protocol.id e.Protocol.tenant e.Protocol.job e.Protocol.circuit
              e.Protocol.crashes e.Protocol.reason)
          entries;
        0
      | _ ->
        err "protocol: unexpected reply to Quarantine_list";
        1)

let quarantine_release host port id =
  with_client host port (fun c ->
      match Client.request c (Protocol.Quarantine_release { id }) with
      | Protocol.Accepted { id } ->
        Printf.printf "released job %d\n" id;
        0
      | Protocol.Error { message } ->
        err "%s" message;
        1
      | _ ->
        err "protocol: unexpected reply to Quarantine_release";
        1)

let quarantine host port action id =
  match (action, id) with
  | "list", None -> quarantine_list host port
  | "release", Some id -> quarantine_release host port id
  | "release", None ->
    err "quarantine release needs a job id";
    exit 2
  | "list", Some _ ->
    err "quarantine list takes no job id";
    exit 2
  | other, _ ->
    err "unknown quarantine action %S (expected list or release)" other;
    exit 2

let stats host port =
  with_client host port (fun c ->
      match Client.request c Protocol.Stats with
      | Protocol.Stats_report report ->
        print_string report;
        0
      | _ ->
        err "protocol: unexpected reply to Stats";
        1)

let shutdown host port =
  with_client host port (fun c ->
      match Client.request c Protocol.Shutdown with
      | Protocol.Shutting_down ->
        print_endline "draining";
        0
      | _ ->
        err "protocol: unexpected reply to Shutdown";
        1)

(* ---------------------------------------------------------------- chaos *)

(* Each chaos mode opens a raw socket and misbehaves on purpose, then
   proves the daemon survived by completing a fresh Ping round-trip.
   Exit 0 = the daemon tolerated the abuse; 1 = it did not. *)

let raw_connect host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  fd

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let chaos_truncate host port =
  (* Half a frame, then a hard close: the decoder must flag the
     truncation and the daemon must drop only this client. *)
  let fd = raw_connect host port in
  let frame =
    Frame.encode
      (Protocol.encode_request (Protocol.Ping { version = Protocol.version }))
  in
  write_all fd (String.sub frame 0 (String.length frame - 2));
  Unix.close fd

let chaos_garbage host port =
  (* A plausible length prefix fronting random bytes: every payload must
     come back as a typed Error reply, never a crash or a hang. *)
  let rng = Bist_util.Rng.create 0xC4A05 in
  for _ = 1 to 16 do
    let fd = raw_connect host port in
    let len = 1 + Bist_util.Rng.int rng 64 in
    let body =
      String.init len (fun _ -> Char.chr (Bist_util.Rng.int rng 256))
    in
    write_all fd (Frame.encode body);
    (match Frame.read_frame fd with
    | Some reply -> (
      match Protocol.decode_response reply with
      | Protocol.Error _ -> ()
      | _ -> failwith "chaos: garbage frame got a non-Error reply")
    | None -> () (* daemon may close a hopeless client; also fine *)
    | exception Frame.Protocol_error _ -> ());
    Unix.close fd
  done

let chaos_slow host port =
  (* A valid Ping delivered one byte at a time with delays: the daemon
     must neither time us out incorrectly nor stall anyone else. *)
  let fd = raw_connect host port in
  let frame =
    Frame.encode
      (Protocol.encode_request (Protocol.Ping { version = Protocol.version }))
  in
  String.iter
    (fun ch ->
      write_all fd (String.make 1 ch);
      Unix.sleepf 0.01)
    frame;
  (match Frame.read_frame fd with
  | Some reply -> (
    match Protocol.decode_response reply with
    | Protocol.Pong -> ()
    | _ -> failwith "chaos: slow ping got a non-Pong reply")
  | None -> failwith "chaos: daemon closed on a slow but valid client");
  Unix.close fd

let chaos_payload_bomb host port =
  (* Three hostile payload shapes, each of which must yield a typed
     rejection at the layer built to catch it — and touch no one else.

     An over-cap payload dies in the protocol decoder (the declared
     length prefix alone condemns it): typed Error, connection closed. *)
  let submit_spec text format =
    Protocol.Tgen
      { circuit = Protocol.Inline { name = "bomb"; format; text };
        seed = 1; directed = 0; trials = 1 }
  in
  let oversized = String.make (Protocol.max_netlist_bytes + 1) 'x' in
  Client.with_connection ~host ~port (fun c ->
      match
        Client.request c
          (Protocol.Submit
             { tenant = "chaos"; deadline = None;
               spec = submit_spec oversized Protocol.Bench })
      with
      | Protocol.Error _ -> ()
      | _ -> failwith "chaos: oversized payload got a non-Error reply"
      | exception Frame.Protocol_error _ ->
        (* The daemon may close the hopeless client before the reply is
           readable; survival is checked by the post-condition Ping. *)
        ());
  (* Garbage that fits the cap is admitted — the server does not parse
     payloads — and must come back as the worker's typed Bad_job. *)
  let expect_failed what text format =
    Client.with_connection ~host ~port (fun c ->
        match
          Client.submit_and_wait c ~tenant:"chaos" (submit_spec text format)
        with
        | Result.Ok (_, Protocol.Failed _) -> ()
        | Result.Ok (_, _) ->
          failwith (Printf.sprintf "chaos: %s payload did not fail typedly" what)
        | Result.Error _ ->
          failwith
            (Printf.sprintf "chaos: %s payload rejected at admission" what))
  in
  expect_failed "garbage" "THIS IS NOT(A, NETLIST" Protocol.Bench;
  (* Mutually recursive .subckt models: elaboration must refuse the
     cycle (typed parse error), not recurse forever in the worker. *)
  expect_failed "recursive-subckt"
    (String.concat "\n"
       [ ".model a"; ".inputs x"; ".outputs y"; ".subckt b x=x y=y"; ".end";
         ".model b"; ".inputs x"; ".outputs y"; ".subckt a x=x y=y"; ".end";
         "" ])
    Protocol.Blif

let chaos host port mode =
  match
    (match mode with
    | "truncate" -> chaos_truncate host port
    | "garbage" -> chaos_garbage host port
    | "slow" -> chaos_slow host port
    | "payload-bomb" -> chaos_payload_bomb host port
    | "all" ->
      chaos_truncate host port;
      chaos_garbage host port;
      chaos_slow host port;
      chaos_payload_bomb host port
    | other ->
      err
        "unknown chaos mode %S (expected truncate, garbage, slow, \
         payload-bomb, all)"
        other;
      exit 2);
    (* The post-condition of every mode: the daemon still answers. *)
    Client.with_connection ~host ~port (fun c ->
        Client.request c (Protocol.Ping { version = Protocol.version }))
  with
  | Protocol.Pong ->
    Printf.printf "chaos %s: daemon survived\n" mode;
    0
  | _ ->
    err "chaos %s: daemon replied, but not with Pong" mode;
    1
  | exception Failure msg ->
    err "%s" msg;
    1
  | exception Unix.Unix_error (e, _, _) ->
    err "chaos %s: daemon unreachable afterwards: %s" mode
      (Unix.error_message e);
    1
  | exception Frame.Protocol_error msg ->
    err "chaos %s: %s" mode msg;
    1

(* ------------------------------------------------------------ cmdliner *)

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon bind/connect address.")

let port_arg ~default =
  Arg.(value & opt int default
       & info [ "port" ] ~docv:"PORT" ~doc:"Daemon TCP port (serve: 0 picks an ephemeral one).")

let serve_cmd =
  let workers =
    Arg.(value & opt int Server.default_config.Server.max_workers
         & info [ "workers" ] ~docv:"N" ~doc:"Concurrent worker processes.")
  and queue =
    Arg.(value & opt int Server.default_config.Server.queue_capacity
         & info [ "queue" ] ~docv:"N" ~doc:"Bounded admission queue capacity.")
  and per_tenant =
    Arg.(value & opt (some int) None
         & info [ "per-tenant" ] ~docv:"N"
             ~doc:"Per-tenant queue quota (default: no quota).")
  and interval =
    Arg.(value & opt float Server.default_config.Server.checkpoint_interval
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Seconds between job checkpoints (the migration granule).")
  and grace =
    Arg.(value & opt float Server.default_config.Server.term_grace
         & info [ "grace" ] ~docv:"SECS"
             ~doc:"Seconds a SIGTERMed worker gets to checkpoint before SIGKILL.")
  and spool =
    Arg.(value & opt string Server.default_config.Server.spool
         & info [ "spool" ] ~docv:"DIR"
             ~doc:"Spool directory for checkpoints, results and the job manifest.")
  and port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Write the bound port here once listening (for scripts using --port 0).")
  and worker_mem =
    Arg.(value & opt int 2048
         & info [ "worker-mem" ] ~docv:"MIB"
             ~doc:"Worker RLIMIT_AS in MiB (0 = inherited limit).")
  and worker_cpu =
    Arg.(value & opt int 0
         & info [ "worker-cpu" ] ~docv:"SECS"
             ~doc:"Worker RLIMIT_CPU in seconds (0 = inherited limit).")
  and worker_nofile =
    Arg.(value & opt int 256
         & info [ "worker-nofile" ] ~docv:"N"
             ~doc:"Worker RLIMIT_NOFILE (0 = inherited limit).")
  and worker_fsize =
    Arg.(value & opt int 1024
         & info [ "worker-fsize" ] ~docv:"MIB"
             ~doc:"Worker RLIMIT_FSIZE in MiB (0 = inherited limit).")
  and poison =
    Arg.(value & opt int Server.default_config.Server.poison_threshold
         & info [ "poison" ] ~docv:"N"
             ~doc:"Crashes on distinct workers before a job is quarantined.")
  and verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Log supervision events to stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the daemon until SIGTERM/SIGINT or a shutdown request (second signal force-quits with exit 130)")
    Term.(
      const serve $ host_arg $ port_arg ~default:0 $ workers $ queue
      $ per_tenant $ interval $ grace $ spool $ port_file $ worker_mem
      $ worker_cpu $ worker_nofile $ worker_fsize $ poison $ verbose)

let submit_cmd =
  let job =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KIND" ~doc:"Job kind: tgen, faultsim or inject.")
  and circuit =
    Arg.(value & pos 1 string "s27"
         & info [] ~docv:"CIRCUIT"
             ~doc:"Registry, teaching or workload circuit name (ignored with $(b,--payload)).")
  and payload =
    Arg.(value & opt (some string) None
         & info [ "payload" ] ~docv:"FILE"
             ~doc:"Ship this .bench/.blif file's text as the job's circuit; \
                   only the daemon's sandboxed worker parses it.")
  and seed =
    Arg.(value & opt int 1999 & info [ "seed" ] ~docv:"SEED" ~doc:"Job seed.")
  and directed =
    Arg.(value & opt int 30
         & info [ "directed" ] ~docv:"N" ~doc:"tgen: directed search budget.")
  and trials =
    Arg.(value & opt int 200
         & info [ "trials" ] ~docv:"N" ~doc:"tgen: compaction trial budget.")
  and vectors =
    Arg.(value & opt (some string) None
         & info [ "vectors" ] ~docv:"FILE"
             ~doc:"faultsim: sequence file (one vector per line).")
  and count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"K" ~doc:"inject: faults per campaign.")
  and n =
    Arg.(value & opt int 2
         & info [ "n" ] ~docv:"N" ~doc:"inject: expansion repetition count.")
  and tenant =
    Arg.(value & opt string "default"
         & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant the job is accounted to.")
  and deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECS" ~doc:"Per-job wall-clock budget.")
  and wait =
    Arg.(value & flag
         & info [ "wait" ] ~doc:"Block until the job finishes and print its result.")
  and output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"With --wait: write the result here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job; exits 1 with the typed reason if the daemon rejects it")
    Term.(
      const submit $ host_arg $ port_arg ~default:7427 $ job $ circuit
      $ payload $ seed $ directed $ trials $ vectors $ count $ n $ tenant
      $ deadline $ wait $ output)

let wait_cmd =
  let id = Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Job id.")
  and output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the result here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "wait"
       ~doc:"Block until a submitted job finishes and print its result; the \
             daemon answers for live jobs and its 64 most recently finished ones")
    Term.(const wait $ host_arg $ port_arg ~default:7427 $ id $ output)

let ping_cmd =
  Cmd.v (Cmd.info "ping" ~doc:"Round-trip liveness check")
    Term.(const ping $ host_arg $ port_arg ~default:7427)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Print the daemon's per-tenant metrics summary")
    Term.(const stats $ host_arg $ port_arg ~default:7427)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask the daemon to drain: running jobs checkpoint and park")
    Term.(const shutdown $ host_arg $ port_arg ~default:7427)

let quarantine_cmd =
  let action =
    Arg.(value & pos 0 string "list"
         & info [] ~docv:"ACTION" ~doc:"list or release.")
  and id =
    Arg.(value & pos 1 (some int) None
         & info [] ~docv:"ID" ~doc:"Job id (release only).")
  in
  Cmd.v
    (Cmd.info "quarantine"
       ~doc:"Inspect or release poison jobs the daemon has quarantined")
    Term.(const quarantine $ host_arg $ port_arg ~default:7427 $ action $ id)

let chaos_cmd =
  let mode =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"MODE"
             ~doc:"Abuse to inflict: truncate, garbage, slow, payload-bomb, or all.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injection harness for the daemon itself; exits 0 iff it survives")
    Term.(const chaos $ host_arg $ port_arg ~default:7427 $ mode)

let () =
  let info =
    Cmd.info "bistd" ~version:"1.0.0"
      ~doc:"Crash-safe multi-tenant BIST generation daemon"
  in
  let group =
    Cmd.group info
      [ serve_cmd; submit_cmd; wait_cmd; ping_cmd; stats_cmd; shutdown_cmd;
        quarantine_cmd; chaos_cmd ]
  in
  match Cmd.eval' ~catch:false ~term_err:2 group with
  | code -> exit (Bist_cli.exit_code code)
  | exception Unix.Unix_error (e, fn, arg) ->
    err "%s: %s %s" fn (Unix.error_message e) arg;
    exit 1
  | exception Invalid_argument msg ->
    err "%s" msg;
    exit 2
