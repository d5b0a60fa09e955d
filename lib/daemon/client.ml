type t = { fd : Unix.file_descr }

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let read_reply t =
  match Frame.read_frame t.fd with
  | Some payload -> Protocol.decode_response payload
  | None ->
    raise (Frame.Protocol_error "daemon closed the connection mid-exchange")

let request t req =
  Frame.write_frame t.fd (Protocol.encode_request req);
  read_reply t

let handshake t =
  match request t (Protocol.Ping { version = Protocol.version }) with
  | Protocol.Pong -> Result.Ok Protocol.version
  | Protocol.Unsupported_version { server; client } ->
    Result.Error (server, client)
  | _ -> raise (Frame.Protocol_error "unexpected reply to Ping")

let submit_and_wait t ~tenant ?deadline spec =
  match request t (Protocol.Submit { tenant; deadline; spec }) with
  | Protocol.Rejected { reason; message } -> Result.Error (reason, message)
  | Protocol.Accepted { id } ->
    (* Wait goes out at once on the same connection, and the daemon
       defers the reply until the job is terminal: the result is missed
       only if [Server.retained] other jobs finish in between. *)
    Frame.write_frame t.fd (Protocol.encode_request (Protocol.Wait { id }));
    Result.Ok (id, read_reply t)
  | other ->
    raise
      (Frame.Protocol_error
         (Printf.sprintf "unexpected reply to Submit: %s"
            (match other with
            | Protocol.Pong -> "Pong"
            | Protocol.Error { message } -> "Error: " ^ message
            | _ -> "wrong response kind")))

let with_connection ~host ~port f =
  let t = connect ~host ~port in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
