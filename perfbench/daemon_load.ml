(* The bistd workload: a daemon started the way users start it
   ([bistd serve]), driven by one closed-loop client connection that
   cycles a fixed job mix. *)

module Protocol = Bist_daemon.Protocol
module Client = Bist_daemon.Client

type daemon = {
  pid : int;
  spool : string;
  out : Unix.file_descr;  (** Read end of the daemon's stdout. *)
  client : Client.t;
}

let live = ref []

(* Daemons still running when the benchmark exits (on an error path) are
   killed and reaped, so no process outlives the run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let dir_bytes path =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat path f)).st_size)
    0 (Sys.readdir path)

(* The port from the line [bistd serve] prints once it listens, read
   from its stdout as it arrives: polling the --port-file for it would
   round set-up time up to the polling period. *)
let read_port out =
  let b = Buffer.create 64 and byte = Bytes.create 1 in
  let give_up = Span.now () +. 30.0 in
  let rec line () =
    let left = give_up -. Span.now () in
    if left <= 0.0 then failwith "bistd serve did not announce a port";
    match Unix.select [ out ] [] [] left with
    | [], _, _ -> line ()
    | _ ->
      if Unix.read out byte 0 1 = 0 then failwith "bistd serve exited before listening"
      else if Bytes.get byte 0 = '\n' then Buffer.contents b
      else begin
        Buffer.add_char b (Bytes.get byte 0);
        line ()
      end
  in
  let text = line () in
  match String.rindex_opt text ':' with
  | Some i -> (
    match int_of_string_opt (String.sub text (i + 1) (String.length text - i - 1)) with
    | Some port -> port
    | None -> failwith ("no port in bistd serve's line " ^ text))
  | None -> failwith ("no port in bistd serve's line " ^ text)

let start ~exe ~dir ~tag =
  let spool = Filename.concat dir ("spool-" ^ tag) in
  rm_rf spool;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--spool"; spool; "--workers"; "2" |]
      devnull out_w Unix.stderr
  in
  Unix.close devnull;
  Unix.close out_w;
  live := pid :: !live;
  let port = read_port out in
  let client = Client.connect ~host:"127.0.0.1" ~port in
  (match Client.handshake client with
  | Ok _ -> ()
  | Error (server, client) ->
    failwith (Printf.sprintf "bistd speaks protocol %d, client %d" server client));
  { pid; spool; out; client }

(* Shut the daemon down and remove its spool; returns the spool's size
   once the daemon has exited. *)
let stop d =
  (try ignore (Client.request d.client Protocol.Shutdown) with _ -> ());
  Client.close d.client;
  let give_up = Span.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Span.now () < give_up ->
      Unix.sleepf 0.001;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live;
  Unix.close d.out;
  let bytes = dir_bytes d.spool in
  rm_rf d.spool;
  bytes

type kind = Tgen_named | Tgen_payload | Faultsim

let kind_layer = function
  | Tgen_named -> "daemon.tgen_named"
  | Tgen_payload -> "daemon.tgen_payload"
  | Faultsim -> "daemon.faultsim"

type job = {
  kind : kind;
  spec : Protocol.job_spec;
  circuit : unit -> Bist_circuit.Netlist.t;  (** The job's circuit, parsed locally. *)
  blif : string option;
}

(* Per seed: named tgen s27; inline-payload tgen of three checked-in
   BLIF files; faultsim s27 on vectors drawn from the seed. The job
   protocol carries a seed as an unsigned 32-bit word, so every seed of
   [seeds] must lie in [0, 2^32). *)
let mix ~seeds =
  let s27 () = Bist_bench.Registry.s27.circuit () in
  let width = Bist_circuit.Netlist.num_inputs (s27 ()) in
  let payloads =
    List.map
      (fun file ->
        (file, In_channel.with_open_bin (Filename.concat "examples" file) In_channel.input_all))
      [ "k12a.blif"; "s27_yosys.blif"; "counter3.blif" ]
  in
  Array.of_list
    (List.concat_map
       (fun seed ->
         let tgen circuit = Protocol.Tgen { circuit; seed; directed = 30; trials = 200 } in
         let vectors =
           Bist_harness.Seq_io.to_string
             (Bist_logic.Tseq.random_binary (Bist_util.Rng.create seed) ~width ~length:64)
         in
         ({ kind = Tgen_named; spec = tgen (Protocol.Named "s27"); circuit = s27; blif = None }
          :: List.map
               (fun (name, text) ->
                 { kind = Tgen_payload;
                   spec = tgen (Protocol.Inline { name; format = Protocol.Blif; text });
                   circuit =
                     (fun () -> Bist_bench.Loader.parse_payload ~format:Blif ~name text);
                   blif = Some text })
               payloads)
         @ [ { kind = Faultsim;
               spec = Protocol.Faultsim { circuit = Protocol.Named "s27"; vectors };
               circuit = s27; blif = None } ])
       seeds)

(* One submit-to-result round trip; [None] for any non-result reply. *)
let submit d job =
  match Client.submit_and_wait d.client ~tenant:"perfbench" job.spec with
  | Ok (_, Protocol.Result { output; _ }) -> Some output
  | Ok _ | Error _ -> None
