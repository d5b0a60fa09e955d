module Io = Bist_resilience.Checkpoint.Io
module Checkpoint = Bist_resilience.Checkpoint
module Cancel = Bist_resilience.Cancel
module Obs = Bist_obs.Obs

type config = {
  host : string;
  port : int;
  max_workers : int;
  queue_capacity : int;
  per_tenant : int option;
  checkpoint_interval : float;
  term_grace : float;
  backoff : Backoff.policy;
  spool : string;
  sandbox : Sandbox.limits;
  poison_threshold : int;
  verbose : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_workers = 2;
    queue_capacity = 16;
    per_tenant = None;
    checkpoint_interval = 0.25;
    term_grace = 5.0;
    backoff = Backoff.default;
    spool = "_build/bistd-spool";
    sandbox = Sandbox.default;
    (* Three crashes on three distinct workers: one below the default
       retry budget, so a poison job is caught by the quarantine gate —
       with its typed reply and operator release path — rather than
       bleeding into a generic budget-exhausted failure. *)
    poison_threshold = 3;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* Job and client bookkeeping                                          *)

type job_state =
  | Queued
  | Running of { pid : int }
  | Waiting_retry of { ready_at : float }
  | Done of { output : string }
  | Failed of { reason : string }
  | Quarantined of { reason : string }

type job = {
  id : int;
  tenant : string;
  spec : Protocol.job_spec;
  submitted : float;
  deadline_at : float option;  (** Absolute epoch seconds. *)
  mutable state : job_state;
  mutable attempts : int;  (** Dispatches that did not finish. *)
  mutable migrations : int;  (** Re-dispatches that resumed a checkpoint. *)
  mutable crashes : int;  (** Crashes on distinct workers (poison gate). *)
  mutable crashed_pids : int list;  (** The distinct workers in question. *)
  mutable deadline_fired : bool;
  mutable waiters : Unix.file_descr list;
}

let state_name = function
  | Queued -> "queued"
  | Running _ -> "running"
  | Waiting_retry _ -> "waiting_retry"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Quarantined _ -> "quarantined"

type client = {
  fd : Unix.file_descr;
  decoder : Frame.Decoder.t;
  mutable pending : string list;  (** Outbound chunks, front first. *)
  mutable sent : int;  (** Bytes of the head chunk already written. *)
  mutable close_after_flush : bool;
  mutable gone : bool;
}

type worker = {
  pid : int;
  pipe_r : Unix.file_descr;  (** EOF when the worker exits, however. *)
  job_id : int;
  mutable term_at : float option;  (** When SIGTERM was sent, for grace. *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  obs : Obs.t;
  clients : (Unix.file_descr, client) Hashtbl.t;
  jobs : (int, job) Hashtbl.t;
  finished : int Queue.t;  (** Done and Failed jobs still in [jobs], oldest first. *)
  queue : int Admission.t;
  workers : (int, worker) Hashtbl.t;  (** Keyed by pid. *)
  drain : Cancel.t;
  mutable draining : bool;
  mutable next_id : int;
  mutable manifest_dirty : bool;
}

let log t fmt =
  if t.cfg.verbose then
    Printf.ksprintf (fun m -> Printf.eprintf "bistd: %s\n%!" m) fmt
  else Printf.ksprintf ignore fmt

let spool_path t id ext = Filename.concat t.cfg.spool (Printf.sprintf "job-%d.%s" id ext)
let ckpt_path t id = spool_path t id "ckpt"
let out_path t id = spool_path t id "out"
let err_path t id = spool_path t id "err"
let pid_path t id = spool_path t id "pid"

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let read_file_opt path =
  try Some (Bist_resilience.Atomic_io.read_file ~path) with
  | Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* The crash-safe job manifest                                         *)
(*                                                                     *)
(* Every admission-state change rewrites spool/manifest atomically: the *)
(* set of unfinished jobs (queued, running, waiting for retry) in       *)
(* submission order, the quarantined jobs, and the id counter. A daemon *)
(* that dies — even SIGKILL — re-admits exactly the unfinished jobs on  *)
(* restart (their checkpoints let them resume rather than restart), and *)
(* quarantined jobs come back quarantined: a poison payload must not    *)
(* escape its cell by crashing the daemon around it.                    *)
(*                                                                      *)
(* Container version 2 (the fingerprint below): v1 manifests predate    *)
(* payload circuit refs and quarantine state, so a v2 daemon refuses    *)
(* them via the checkpoint Mismatch — logged as a version mismatch —    *)
(* and starts with an empty queue instead of misreading old bytes.      *)

let manifest_kind = "bistd"
let manifest_circuit = "queue"
let manifest_fingerprint = Bist_resilience.Crc32.string "bistd-manifest/2"
let manifest_path t = Filename.concat t.cfg.spool "manifest"

let pending_jobs t =
  Hashtbl.fold
    (fun _ j acc ->
      match j.state with
      | Queued | Running _ | Waiting_retry _ -> j :: acc
      | Done _ | Failed _ | Quarantined _ -> acc)
    t.jobs []
  |> List.sort (fun a b -> compare a.id b.id)

let quarantined_jobs t =
  Hashtbl.fold
    (fun _ j acc ->
      match j.state with Quarantined { reason } -> (j, reason) :: acc | _ -> acc)
    t.jobs []
  |> List.sort (fun (a, _) (b, _) -> compare a.id b.id)

let write_manifest t =
  let w = Io.writer () in
  Io.u32 w t.next_id;
  Io.list w
    (fun w j ->
      Io.u32 w j.id;
      Io.string w j.tenant;
      Protocol.encode_spec w j.spec;
      Io.u32 w j.attempts;
      Io.u32 w j.migrations;
      Io.u32 w j.crashes;
      Io.option w (fun w f -> Io.i64 w (Int64.bits_of_float f)) j.deadline_at)
    (pending_jobs t);
  Io.list w
    (fun w (j, reason) ->
      Io.u32 w j.id;
      Io.string w j.tenant;
      Protocol.encode_spec w j.spec;
      Io.u32 w j.attempts;
      Io.u32 w j.crashes;
      Io.string w reason)
    (quarantined_jobs t);
  Checkpoint.save ~path:(manifest_path t)
    { Checkpoint.kind = manifest_kind; circuit = manifest_circuit;
      fingerprint = manifest_fingerprint; payload = Io.contents w };
  t.manifest_dirty <- false

let load_manifest t =
  let path = manifest_path t in
  if Sys.file_exists path then
    match
      let header = Checkpoint.load path in
      Checkpoint.ensure ~kind:manifest_kind ~circuit:manifest_circuit
        ~fingerprint:manifest_fingerprint header;
      let r = Io.reader header.Checkpoint.payload in
      let next_id = Io.r_u32 r in
      let entries =
        Io.r_list r (fun r ->
            let id = Io.r_u32 r in
            let tenant = Io.r_string r in
            let spec = Protocol.decode_spec r in
            let attempts = Io.r_u32 r in
            let migrations = Io.r_u32 r in
            let crashes = Io.r_u32 r in
            let deadline_at =
              Io.r_option r (fun r -> Int64.float_of_bits (Io.r_i64 r))
            in
            (id, tenant, spec, attempts, migrations, crashes, deadline_at))
      in
      let quarantined =
        Io.r_list r (fun r ->
            let id = Io.r_u32 r in
            let tenant = Io.r_string r in
            let spec = Protocol.decode_spec r in
            let attempts = Io.r_u32 r in
            let crashes = Io.r_u32 r in
            let reason = Io.r_string r in
            (id, tenant, spec, attempts, crashes, reason))
      in
      Io.expect_end r;
      (next_id, entries, quarantined)
    with
    | next_id, entries, quarantined ->
      t.next_id <- max t.next_id next_id;
      (* readmit pushes to the front; walk backwards so the queue ends up
         in submission order. *)
      List.iter
        (fun (id, tenant, spec, attempts, migrations, crashes, deadline_at) ->
          let job =
            { id; tenant; spec; submitted = Unix.gettimeofday ();
              deadline_at; state = Queued; attempts; migrations; crashes;
              crashed_pids = []; deadline_fired = false; waiters = [] }
          in
          Hashtbl.replace t.jobs id job;
          Admission.readmit t.queue ~tenant id;
          log t "recovered job %d (%s/%s, %d attempt(s))" id tenant
            (Protocol.spec_name spec) attempts)
        (List.rev entries);
      List.iter
        (fun (id, tenant, spec, attempts, crashes, reason) ->
          let job =
            { id; tenant; spec; submitted = Unix.gettimeofday ();
              deadline_at = None; state = Quarantined { reason };
              attempts; migrations = 0; crashes; crashed_pids = [];
              deadline_fired = false; waiters = [] }
          in
          Hashtbl.replace t.jobs id job;
          log t "recovered quarantined job %d (%s/%s): %s" id tenant
            (Protocol.spec_name spec) reason)
        quarantined
    | exception Checkpoint.Mismatch _ ->
      (* An older daemon's spool: refuse it loudly but distinctly — this
         is a version boundary, not damage. *)
      log t "manifest %s is from an incompatible daemon version; starting \
             with an empty queue" path;
      remove_quietly path
    | exception (Checkpoint.Corrupt _ | Frame.Protocol_error _) ->
      (* A damaged manifest means a fresh queue, not a dead daemon. *)
      log t "manifest %s is damaged; starting with an empty queue" path;
      remove_quietly path

(* ------------------------------------------------------------------ *)
(* Client IO (non-blocking, buffered)                                  *)

let client_metrics_tenant = "_protocol"

let drop_client t c =
  if not c.gone then begin
    c.gone <- true;
    Hashtbl.remove t.clients c.fd;
    Hashtbl.iter
      (fun _ j -> j.waiters <- List.filter (fun fd -> fd <> c.fd) j.waiters)
      t.jobs;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end

let rec flush_client t c =
  match c.pending with
  | [] -> if c.close_after_flush then drop_client t c
  | s :: rest -> (
    let len = String.length s - c.sent in
    match Unix.write_substring c.fd s c.sent len with
    | n when n = len ->
      c.pending <- rest;
      c.sent <- 0;
      flush_client t c
    | n -> c.sent <- c.sent + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      drop_client t c)

let send t c resp =
  if not c.gone then begin
    c.pending <- c.pending @ [ Frame.encode (Protocol.encode_response resp) ];
    flush_client t c
  end

(* ------------------------------------------------------------------ *)
(* Supervision: spawn, reap, retry, migrate                            *)

let job_metric t name job = Obs.count t.obs (name ^ "." ^ job.tenant)

let notify_waiters t job resp =
  List.iter
    (fun fd ->
      match Hashtbl.find_opt t.clients fd with
      | Some c -> send t c resp
      | None -> ())
    job.waiters;
  job.waiters <- []

(* A finished job's verdict is in memory and the manifest never
   re-admits it, so none of its spool files is read again. *)
let retire t job =
  remove_quietly (ckpt_path t job.id);
  remove_quietly (out_path t job.id);
  remove_quietly (err_path t job.id);
  Queue.push job.id t.finished;
  t.manifest_dirty <- true

let finish_job t job output =
  job.state <- Done { output };
  job_metric t "completed" job;
  Obs.observe t.obs ("latency_s." ^ job.tenant)
    (Unix.gettimeofday () -. job.submitted);
  retire t job;
  notify_waiters t job (Protocol.Result { id = job.id; output });
  log t "job %d done (%s/%s)" job.id job.tenant (Protocol.spec_name job.spec)

let fail_job t job reason =
  job.state <- Failed { reason };
  job_metric t "failed" job;
  retire t job;
  notify_waiters t job (Protocol.Failed { id = job.id; reason });
  log t "job %d failed: %s" job.id reason

(* Status and Wait answer for the [retained] most recently finished
   jobs; older ones are forgotten, oldest first, and then get "unknown
   job id". [Client.submit_and_wait] sends its Wait as soon as the job
   is accepted, so it misses the result only if [retained] other jobs
   finish in between. Quarantined jobs are kept until released. This
   runs from the event loop, not from [retire], because [fire_timers]
   retires jobs while it iterates over [jobs]. *)
let retained = 64

let forget_finished t =
  while Queue.length t.finished > retained do
    Hashtbl.remove t.jobs (Queue.pop t.finished)
  done

(* Fork one worker for a job. The child shares no descriptors with the
   event loop except the write end of its supervision pipe: EOF on the
   read end is the exit notification that cannot be missed, masked or
   delayed — it fires for a clean exit and for SIGKILL alike. *)
let spawn_worker t job =
  let migrated = Sys.file_exists (ckpt_path t job.id) in
  let pipe_r, pipe_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* Worker child: drop every inherited daemon descriptor, run the
       job, exit through _exit so no parent at_exit/buffer replays. *)
    (try Unix.close pipe_r with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) t.clients;
    Hashtbl.iter
      (fun _ w -> try Unix.close w.pipe_r with Unix.Unix_error _ -> ())
      t.workers;
    let cancel = Cancel.create () in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Cancel.request cancel));
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    (* Exit codes are the one channel the parent trusts, so nothing may
       escape with an accidental code (an uncaught OCaml exception exits
       2, which would masquerade as Bad_job). write_err is best-effort:
       losing the detail must not lose the verdict. *)
    let write_err msg =
      try Bist_resilience.Atomic_io.write_file ~path:(err_path t job.id) msg
      with _ -> ()
    in
    let code =
      try
        (* The rlimit cage goes up before a byte of the (possibly
           hostile) payload is parsed. The daemon process itself never
           runs under these limits — only this child. *)
        Sandbox.apply t.cfg.sandbox;
        match
          Runner.run_job ~checkpoint:(ckpt_path t job.id)
            ~interval:t.cfg.checkpoint_interval ~cancel job.spec
        with
        | Runner.Finished output -> (
          try
            Bist_resilience.Atomic_io.write_file ~path:(out_path t job.id)
              output;
            0
          with e ->
            write_err (Printexc.to_string e);
            1)
        | Runner.Preempted -> 3
        | exception Runner.Bad_job msg ->
          write_err msg;
          2
        | exception e ->
          write_err (Printexc.to_string e);
          1
      with e ->
        write_err (Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close pipe_w;
    job.state <- Running { pid };
    if migrated then begin
      job.migrations <- job.migrations + 1;
      job_metric t "migrations" job
    end;
    (* The pid file is the chaos harness's handle for killing a specific
       job's worker mid-run. *)
    Bist_resilience.Atomic_io.write_file ~path:(pid_path t job.id)
      (string_of_int pid);
    Hashtbl.replace t.workers pid { pid; pipe_r; job_id = job.id; term_at = None };
    t.manifest_dirty <- true;
    log t "job %d %s on worker %d%s" job.id
      (if migrated then "resumed" else "started")
      pid
      (if migrated then Printf.sprintf " (migration #%d)" job.migrations else "")

let dispatch t =
  let continue = ref true in
  while
    !continue && (not t.draining)
    && Hashtbl.length t.workers < t.cfg.max_workers
  do
    match Admission.take t.queue with
    | None -> continue := false
    | Some (_tenant, id) -> (
      match Hashtbl.find_opt t.jobs id with
      | Some job when job.state = Queued -> spawn_worker t job
      | _ -> () (* failed-while-queued (deadline); skip the stale entry *))
  done;
  Obs.gauge t.obs "queue_depth" (float_of_int (Admission.length t.queue));
  Obs.gauge t.obs "workers_busy" (float_of_int (Hashtbl.length t.workers))

let retry_or_fail t job ~why =
  job.attempts <- job.attempts + 1;
  job_metric t "retries" job;
  match Backoff.delay t.cfg.backoff ~attempt:job.attempts with
  | Some d ->
    job.state <- Waiting_retry { ready_at = Unix.gettimeofday () +. d };
    t.manifest_dirty <- true;
    log t "job %d worker died (%s); retry %d/%d in %.3fs" job.id why
      job.attempts t.cfg.backoff.Backoff.budget d
  | None ->
    fail_job t job
      (Printf.sprintf "worker failed %d time(s), retry budget exhausted (last: %s)"
         job.attempts why)

let quarantine_job t job ~why =
  let reason =
    Printf.sprintf "crashed %d distinct worker(s) (last: %s)" job.crashes why
  in
  job.state <- Quarantined { reason };
  job_metric t "quarantined" job;
  notify_waiters t job (Protocol.Quarantined { id = job.id; reason });
  (* The checkpoint stays: if an operator releases the job (a daemon bug
     was fixed, the limit was raised), it resumes rather than restarts.
     Only the quarantine verdict is permanent-until-released. *)
  t.manifest_dirty <- true;
  log t "job %d quarantined: %s" job.id reason

(* A worker crash — as opposed to a typed Bad_job or a drain park — may
   be the payload's doing or the machine's. The poison gate tells them
   apart by demanding the same job take down [poison_threshold] distinct
   workers: a flaky host or an unlucky OOM kills assorted pids across
   assorted jobs, while a poison payload deterministically kills every
   worker that touches it. *)
let crash t job ~pid ~why =
  if not (List.mem pid job.crashed_pids) then begin
    job.crashed_pids <- pid :: job.crashed_pids;
    job.crashes <- job.crashes + 1
  end;
  job_metric t "crashes" job;
  if job.crashes >= t.cfg.poison_threshold then quarantine_job t job ~why
  else retry_or_fail t job ~why

let reap_worker t w status =
  Hashtbl.remove t.workers w.pid;
  (try Unix.close w.pipe_r with Unix.Unix_error _ -> ());
  match Hashtbl.find_opt t.jobs w.job_id with
  | None -> ()
  | Some job ->
    remove_quietly (pid_path t job.id);
    (match status with
    | Unix.WEXITED 0 -> (
      match read_file_opt (out_path t job.id) with
      | Some output -> finish_job t job output
      | None -> crash t job ~pid:w.pid ~why:"exit 0 but no result file")
    | Unix.WEXITED 2 ->
      let detail =
        Option.value (read_file_opt (err_path t job.id)) ~default:"bad job"
      in
      fail_job t job detail
    | Unix.WEXITED 3 ->
      if t.draining then begin
        (* Drain: the worker checkpointed and parked the job; it goes
           back to the queue so the manifest re-admits it on restart. *)
        job.state <- Queued;
        Admission.readmit t.queue ~tenant:job.tenant job.id;
        t.manifest_dirty <- true;
        log t "job %d parked (drain), checkpoint on disk" job.id
      end
      else if job.deadline_fired then
        fail_job t job "deadline exceeded"
      else retry_or_fail t job ~why:"preempted outside drain"
    | Unix.WEXITED code ->
      crash t job ~pid:w.pid ~why:(Printf.sprintf "exit %d" code)
    | Unix.WSIGNALED sg ->
      let name =
        if sg = Sys.sigkill then "SIGKILL"
        else if sg = Sys.sigterm then "SIGTERM"
        else if sg = Sys.sigsegv then "SIGSEGV"
        else if sg = Sys.sigxcpu then "SIGXCPU (cpu rlimit)"
        else if sg = Sys.sigxfsz then "SIGXFSZ (file-size rlimit)"
        else Printf.sprintf "signal %d" sg
      in
      if job.deadline_fired && sg = Sys.sigkill then
        fail_job t job "deadline exceeded"
      else crash t job ~pid:w.pid ~why:("killed by " ^ name)
    | Unix.WSTOPPED _ -> () (* not requested; never delivered by waitpid *))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let submit t c ~tenant ~deadline spec =
  if t.draining then
    send t c
      (Protocol.Rejected
         { reason = Protocol.Draining; message = "daemon is shutting down" })
  else
    match Admission.offer t.queue ~tenant t.next_id with
    | Result.Error why ->
      let reason, message =
        match why with
        | Admission.Queue_full ->
          ( Protocol.Queue_full,
            Printf.sprintf "admission queue is full (%d job(s) queued)"
              (Admission.length t.queue) )
        | Admission.Tenant_quota ->
          ( Protocol.Tenant_quota,
            Printf.sprintf "tenant %S already holds %d queued job(s)" tenant
              (Admission.tenant_depth t.queue tenant) )
      in
      Obs.count t.obs ("rejected." ^ tenant);
      log t "rejected %s/%s: %s" tenant (Protocol.spec_name spec) message;
      send t c (Protocol.Rejected { reason; message })
    | Result.Ok () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let now = Unix.gettimeofday () in
      let job =
        { id; tenant; spec; submitted = now;
          deadline_at = Option.map (fun d -> now +. d) deadline;
          state = Queued; attempts = 0; migrations = 0; crashes = 0;
          crashed_pids = []; deadline_fired = false; waiters = [] }
      in
      Hashtbl.replace t.jobs id job;
      Obs.count t.obs ("admitted." ^ tenant);
      t.manifest_dirty <- true;
      log t "admitted job %d (%s/%s on %s%s)" id tenant
        (Protocol.spec_name spec)
        (Protocol.spec_circuit spec)
        (if Protocol.spec_is_payload spec then " [payload]" else "");
      send t c (Protocol.Accepted { id })

let handle_request t c req =
  match req with
  | Protocol.Ping { version } ->
    if version = Protocol.version then send t c Protocol.Pong
    else begin
      Obs.count t.obs ("version_mismatch." ^ client_metrics_tenant);
      log t "ping from protocol v%d client (this daemon speaks v%d)" version
        Protocol.version;
      send t c
        (Protocol.Unsupported_version
           { server = Protocol.version; client = version })
    end
  | Protocol.Stats -> send t c (Protocol.Stats_report (Obs.summary t.obs))
  | Protocol.Submit { tenant; deadline; spec } -> submit t c ~tenant ~deadline spec
  | Protocol.Status { id } -> (
    match Hashtbl.find_opt t.jobs id with
    | None ->
      send t c (Protocol.Error { message = Printf.sprintf "unknown job id %d" id })
    | Some job ->
      send t c
        (Protocol.Job_status
           { id; state = state_name job.state; attempts = job.attempts }))
  | Protocol.Wait { id } -> (
    match Hashtbl.find_opt t.jobs id with
    | None ->
      send t c (Protocol.Error { message = Printf.sprintf "unknown job id %d" id })
    | Some job -> (
      match job.state with
      | Done { output } -> send t c (Protocol.Result { id; output })
      | Failed { reason } -> send t c (Protocol.Failed { id; reason })
      | Quarantined { reason } -> send t c (Protocol.Quarantined { id; reason })
      | Queued | Running _ | Waiting_retry _ ->
        job.waiters <- c.fd :: job.waiters))
  | Protocol.Quarantine_list ->
    let entries =
      List.map
        (fun (j, reason) ->
          { Protocol.id = j.id; tenant = j.tenant;
            job = Protocol.spec_name j.spec;
            circuit = Protocol.spec_circuit j.spec; crashes = j.crashes;
            reason })
        (quarantined_jobs t)
    in
    send t c (Protocol.Quarantine_report entries)
  | Protocol.Quarantine_release { id } -> (
    match Hashtbl.find_opt t.jobs id with
    | Some ({ state = Quarantined _; _ } as job) ->
      (* Fresh crash budget, front of the queue (readmit bypasses the
         admission bounds — the job already paid for its slot once). *)
      job.crashes <- 0;
      job.crashed_pids <- [];
      job.attempts <- 0;
      job.state <- Queued;
      Admission.readmit t.queue ~tenant:job.tenant job.id;
      t.manifest_dirty <- true;
      job_metric t "released" job;
      log t "job %d released from quarantine" id;
      send t c (Protocol.Accepted { id })
    | Some job ->
      send t c
        (Protocol.Error
           { message =
               Printf.sprintf "job %d is %s, not quarantined" id
                 (state_name job.state) })
    | None ->
      send t c (Protocol.Error { message = Printf.sprintf "unknown job id %d" id }))
  | Protocol.Shutdown ->
    send t c Protocol.Shutting_down;
    Cancel.request t.drain

(* A protocol violation is that client's problem only: best-effort typed
   reply, close after flush, serve everyone else untouched. *)
let protocol_error t c msg =
  Obs.count t.obs ("protocol_errors." ^ client_metrics_tenant);
  log t "protocol error: %s" msg;
  send t c (Protocol.Error { message = msg });
  c.close_after_flush <- true;
  if c.pending = [] then drop_client t c

let client_readable t c =
  let buf = Bytes.create 4096 in
  let continue = ref true in
  while !continue && not c.gone do
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
      continue := false;
      (match Frame.Decoder.finish c.decoder with
      | () -> ()
      | exception Frame.Protocol_error _ ->
        Obs.count t.obs ("protocol_errors." ^ client_metrics_tenant);
        log t "client closed mid-frame");
      drop_client t c
    | n -> (
      match
        Frame.Decoder.feed c.decoder (Bytes.sub_string buf 0 n);
        let rec drain_frames () =
          if not c.gone && not c.close_after_flush then
            match Frame.Decoder.next c.decoder with
            | None -> ()
            | Some payload ->
              handle_request t c (Protocol.decode_request payload);
              drain_frames ()
        in
        drain_frames ()
      with
      | () -> ()
      | exception Frame.Protocol_error msg ->
        continue := false;
        protocol_error t c msg)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      continue := false;
      drop_client t c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Timers: retries, deadlines, kill grace                              *)

let fire_timers t =
  let now = Unix.gettimeofday () in
  Hashtbl.iter
    (fun _ job ->
      (match job.state with
      | Waiting_retry { ready_at } when ready_at <= now ->
        job.state <- Queued;
        Admission.readmit t.queue ~tenant:job.tenant job.id;
        t.manifest_dirty <- true
      | _ -> ());
      match (job.deadline_at, job.state) with
      | Some at, Queued when at <= now ->
        Admission.remove t.queue (fun id -> id = job.id);
        fail_job t job "deadline exceeded before the job was dispatched"
      | Some at, Waiting_retry _ when at <= now ->
        fail_job t job "deadline exceeded"
      | Some at, Running { pid } when at <= now && not job.deadline_fired ->
        job.deadline_fired <- true;
        (match Hashtbl.find_opt t.workers pid with
        | Some w ->
          w.term_at <- Some now;
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          log t "job %d deadline fired; SIGTERM worker %d" job.id pid
        | None -> ())
      | _ -> ())
    t.jobs;
  (* A worker that ignored SIGTERM past the grace period is killed hard;
     its checkpoint (if any) still migrates the job. *)
  Hashtbl.iter
    (fun _ w ->
      match w.term_at with
      | Some at when now -. at > t.cfg.term_grace ->
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        w.term_at <- Some infinity
      | _ -> ())
    t.workers

let next_timer_delay t =
  let now = Unix.gettimeofday () in
  let min_opt acc v = match acc with None -> Some v | Some a -> Some (Float.min a v) in
  let deadline_of job =
    match job.state with
    | Waiting_retry { ready_at } -> Some ready_at
    | Running _ | Queued -> job.deadline_at
    | Done _ | Failed _ | Quarantined _ -> None
  in
  let soonest =
    Hashtbl.fold
      (fun _ job acc ->
        match deadline_of job with None -> acc | Some at -> min_opt acc at)
      t.jobs None
  in
  let soonest =
    Hashtbl.fold
      (fun _ w acc ->
        match w.term_at with
        | Some at when at <> infinity -> min_opt acc (at +. t.cfg.term_grace)
        | _ -> acc)
      t.workers soonest
  in
  match soonest with
  | None -> 0.5
  | Some at -> Float.max 0.0 (Float.min 0.5 (at -. now))

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)

let start_drain t =
  if not t.draining then begin
    t.draining <- true;
    log t "draining: %d worker(s), %d queued" (Hashtbl.length t.workers)
      (Admission.length t.queue);
    let now = Unix.gettimeofday () in
    Hashtbl.iter
      (fun _ w ->
        w.term_at <- Some now;
        try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ())
      t.workers
  end

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)

let validate cfg =
  if cfg.max_workers < 1 then
    invalid_arg (Printf.sprintf "bistd: max_workers %d < 1" cfg.max_workers);
  if cfg.queue_capacity < 1 then
    invalid_arg (Printf.sprintf "bistd: queue_capacity %d < 1" cfg.queue_capacity);
  if not (Float.is_finite cfg.checkpoint_interval && cfg.checkpoint_interval > 0.0)
  then
    invalid_arg
      (Printf.sprintf "bistd: checkpoint_interval %g must be positive"
         cfg.checkpoint_interval);
  if not (Float.is_finite cfg.term_grace && cfg.term_grace > 0.0) then
    invalid_arg (Printf.sprintf "bistd: term_grace %g must be positive" cfg.term_grace);
  if cfg.poison_threshold < 1 then
    invalid_arg
      (Printf.sprintf "bistd: poison_threshold %d < 1" cfg.poison_threshold);
  (match Sandbox.validate cfg.sandbox with
  | Result.Ok _ -> ()
  | Result.Error msg -> invalid_arg ("bistd: " ^ msg));
  match Backoff.validate cfg.backoff with
  | Result.Ok _ -> ()
  | Result.Error msg -> invalid_arg ("bistd: " ^ msg)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let run ?on_ready cfg =
  validate cfg;
  mkdir_p cfg.spool;
  (* A dead client must cost a typed EPIPE, not a fatal SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let t =
    {
      cfg;
      listen_fd;
      obs = Obs.create ();
      clients = Hashtbl.create 16;
      jobs = Hashtbl.create 64;
      finished = Queue.create ();
      queue = Admission.create ?per_tenant:cfg.per_tenant ~capacity:cfg.queue_capacity ();
      workers = Hashtbl.create 8;
      drain = Cancel.create ();
      draining = false;
      next_id = 1;
      manifest_dirty = true;
    }
  in
  load_manifest t;
  (* First signal: graceful drain. Second: force-quit, exit 130 —
     skipping at_exit so nothing can wedge the quit. *)
  let signals = ref 0 in
  let on_signal _ =
    incr signals;
    if !signals > 1 then Unix._exit 130 else Cancel.request t.drain
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  log t "worker sandbox: %s; poison threshold %d"
    (Sandbox.describe cfg.sandbox) cfg.poison_threshold;
  Printf.printf "bistd: listening on %s:%d\n%!" cfg.host port;
  Option.iter (fun f -> f ~port) on_ready;
  let finished = ref false in
  while not !finished do
    if Cancel.requested t.drain then start_drain t;
    fire_timers t;
    dispatch t;
    forget_finished t;
    if t.manifest_dirty then write_manifest t;
    if t.draining && Hashtbl.length t.workers = 0 then finished := true
    else begin
      let reads =
        t.listen_fd
        :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.clients
             (Hashtbl.fold (fun _ w acc -> w.pipe_r :: acc) t.workers [])
      in
      let writes =
        Hashtbl.fold
          (fun fd c acc -> if c.pending <> [] then fd :: acc else acc)
          t.clients []
      in
      match Unix.select reads writes [] (next_timer_delay t) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then begin
              let accepting = ref true in
              while !accepting do
                match Unix.accept t.listen_fd with
                | cfd, _ ->
                  Unix.set_nonblock cfd;
                  Hashtbl.replace t.clients cfd
                    { fd = cfd; decoder = Frame.Decoder.create ();
                      pending = []; sent = 0; close_after_flush = false;
                      gone = false }
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  accepting := false
              done
            end
            else
              match Hashtbl.find_opt t.clients fd with
              | Some c -> client_readable t c
              | None -> (
                (* Not a client: a worker pipe signalling exit. *)
                match
                  Hashtbl.fold
                    (fun _ w acc -> if w.pipe_r = fd then Some w else acc)
                    t.workers None
                with
                | Some w ->
                  let _, status = Unix.waitpid [] w.pid in
                  reap_worker t w status
                | None -> ()))
          readable;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.clients fd with
            | Some c ->
              flush_client t c;
              if c.close_after_flush && c.pending = [] then drop_client t c
            | None -> ())
          writable
    end
  done;
  write_manifest t;
  log t "drained; %d job(s) parked in %s" (List.length (pending_jobs t)) cfg.spool;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) t.clients;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
