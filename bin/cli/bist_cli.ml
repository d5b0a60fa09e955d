(* Plumbing the command-line front ends share: the exit-code contract
   (0 ok, 1 operational failure, 2 usage or bad input, 3 preempted), the
   domain pool behind --jobs, preemption behind --deadline/--checkpoint,
   and the observability sinks behind --trace/--stats. Each front end
   keeps its own cmdliner terms. *)

module Ctl = Bist_resilience.Ctl

(* cmdliner answers a command line it cannot parse with its own code
   (124); the contract says 2. *)
let exit_code code = if code = Cmdliner.Cmd.Exit.cli_error then 2 else code

let require_positive ~flag v =
  if v < 1 then begin
    Printf.eprintf "error: %s must be >= 1 (got %d)\n" flag v;
    exit 2
  end

(* --jobs 0 means "auto": min(cores, 8). A width of 1 yields no pool,
   i.e. the sequential path. *)
let pool_of_jobs jobs =
  let jobs = Bist_parallel.Pool.validate_jobs ~source:"--jobs" jobs in
  let jobs = if jobs = 0 then Bist_parallel.Pool.default_jobs () else jobs in
  if jobs <= 1 then None else Some (Bist_parallel.Pool.create ~jobs ())

(* --trace buffers Chrome trace events, --stats prints the per-phase
   summary. Without either the sink is Obs.null and the instrumented hot
   paths cost one branch. *)
let with_obs ~trace ~stats f =
  if trace = None && not stats then f Bist_obs.Obs.null
  else begin
    let obs = Bist_obs.Obs.create ~trace:(trace <> None) () in
    let finish () =
      (match trace with
      | Some path ->
        Bist_obs.Obs.write_trace obs path;
        Format.eprintf "wrote %s (%d trace events)@." path
          (Bist_obs.Obs.trace_events obs)
      | None -> ());
      if stats then prerr_string (Bist_obs.Obs.summary obs)
    in
    match f obs with
    | v ->
      finish ();
      v
    | exception e ->
      (* The trace up to a failure or a preemption is often exactly what
         is needed to debug it; flush before re-raising. *)
      finish ();
      raise e
  end

exception
  Preempted_run of { reason : Ctl.reason; checkpoint : string option }

(* --deadline bounds the wall-clock budget, --checkpoint names where a
   preempted run serializes its progress. SIGINT/SIGTERM become a
   cooperative cancellation when a checkpoint path is armed, so an
   interrupted run exits 3 with a resumable file instead of dying. *)
let make_ctl ~deadline ~checkpoint =
  match (deadline, checkpoint) with
  | None, None -> None
  | _ ->
    (match deadline with
    | Some s when s <= 0.0 ->
      Printf.eprintf "error: --deadline must be positive (got %g)\n" s;
      exit 2
    | _ -> ());
    let cancel = Bist_resilience.Cancel.create () in
    let deadline = Option.map Bist_resilience.Deadline.after deadline in
    (* Cancel.request is a single atomic store — async-signal-safe. The
       handler is installed only when preemption is armed, so plain runs
       keep the default die-on-signal behaviour. A second signal while
       the graceful cancel + checkpoint write is still in flight is a
       force-quit: exit 130 immediately (Unix._exit skips at_exit, so a
       wedged domain join cannot swallow the quit; the checkpoint stays
       consistent because Atomic_io only ever renames complete files). *)
    if checkpoint <> None then begin
      let signals = ref 0 in
      let handler =
        Sys.Signal_handle
          (fun _ ->
            incr signals;
            if !signals > 1 then Unix._exit 130
            else Bist_resilience.Cancel.request cancel)
      in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler
    end;
    Some (Ctl.create ?deadline ~cancel ())

let stop_reason ctl =
  match ctl with
  | Some c -> Option.value (Ctl.stop_reason c) ~default:Ctl.Cancelled
  | None -> Ctl.Cancelled

(* Run a front end's cmdliner evaluation and turn what escapes it into
   the contract's exit codes: [bad_input] picks the typed errors that
   mean bad input (exit 2, with their registered printers), a preempted
   run exits 3. *)
let main ~bad_input eval =
  match eval () with
  | code -> exit (exit_code code)
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
  | exception e when bad_input e ->
    Printf.eprintf "error: %s\n" (Printexc.to_string e);
    exit 2
  | exception Preempted_run { reason; checkpoint } ->
    (match checkpoint with
    | Some path ->
      Printf.eprintf
        "preempted (%s): checkpoint written to %s — resume with --resume %s\n"
        (Ctl.reason_name reason) path path
    | None ->
      Printf.eprintf
        "preempted (%s): no --checkpoint path was given, progress discarded\n"
        (Ctl.reason_name reason));
    exit 3
  | exception Ctl.Preempted reason ->
    (* A phase without resumable state was preempted; there is nothing
       to write, but the exit code still says why. *)
    Printf.eprintf "preempted (%s): this phase keeps no resumable state\n"
      (Ctl.reason_name reason);
    exit 3
