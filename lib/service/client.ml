module E = Dls.Errors

type t = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  mutable closed : bool;
}

type transport_error = [ `Closed | `Closed_mid_line | `Deadline ]

let transport_error_to_string = function
  | `Closed -> "server closed the connection"
  | `Closed_mid_line -> "connection lost mid-response"
  | `Deadline -> "deadline expired waiting for the response"

let connect address =
  Result.map
    (fun fd -> { fd; reader = Wire.reader fd; closed = false })
    (Endpoint.connect address)

(* One raw request/response cycle: the resilient client builds on this
   because it needs the undecoded reply line (corruption detection
   happens on raw bytes, before parsing). *)
let request_line ?deadline_s t line =
  if t.closed then Error `Closed
  else
    match Wire.write_line t.fd line with
    | Error `Closed -> Error `Closed
    | Ok () -> (
      match Wire.read_line ?deadline_s t.reader with
      | Wire.Line reply -> Ok reply
      | Wire.Eof -> Error `Closed
      | Wire.Eof_mid_line -> Error `Closed_mid_line
      | Wire.Deadline -> Error `Deadline)

let request_raw ?deadline_s t line =
  match request_line ?deadline_s t line with
  | Ok reply -> Protocol.parse_response reply
  | Error e -> Error (E.Io_error (transport_error_to_string e))

let request ?deadline_s t req =
  request_raw ?deadline_s t (Protocol.request_to_string req)

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_client address f =
  match connect address with
  | Error _ as e -> e
  | Ok t ->
    let r =
      match f t with v -> Ok v | exception exn -> close t; raise exn
    in
    close t;
    r
