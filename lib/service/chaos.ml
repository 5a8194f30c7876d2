(* Fault-injecting line-protocol proxy.  See chaos.mli for plan
   semantics.  The relay is synchronous per connection: read one client
   line, forward, read one upstream line, deliver — the protocol is
   strictly request/response, so nothing is lost by not pipelining. *)

module E = Dls.Errors

type fault =
  | Drop
  | Delay of float
  | Stall
  | Truncate
  | Garble_req
  | Garble_resp
  | Disconnect

type spec = { conn : int; req : int; fault : fault }
type plan = spec list

let fault_to_string = function
  | Drop -> "drop"
  | Delay s -> Printf.sprintf "delay %s" (Printf.sprintf "%.17g" s)
  | Stall -> "stall"
  | Truncate -> "truncate"
  | Garble_req -> "garble-req"
  | Garble_resp -> "garble-resp"
  | Disconnect -> "disconnect"

let to_string plan =
  let b = Buffer.create 256 in
  Buffer.add_string b "# dls chaos v1\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "conn %d req %d %s\n" s.conn s.req
           (fault_to_string s.fault)))
    plan;
  Buffer.contents b

let of_string s =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' s in
  let parse_line lineno line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '#' then Ok None
    else
      let toks =
        List.filter (fun t -> t <> "") (String.split_on_char ' ' trimmed)
      in
      let int_tok name v =
        match int_of_string_opt v with
        | Some i when i >= 0 -> Ok i
        | _ ->
          E.parse_error ~line:lineno ~col:1 "chaos: %s must be a non-negative \
                                             integer, got %S" name v
      in
      match toks with
      | "conn" :: c :: "req" :: r :: fault_toks -> (
        let* conn = int_tok "conn" c in
        let* req = int_tok "req" r in
        let* fault =
          match fault_toks with
          | [ "drop" ] -> Ok Drop
          | [ "stall" ] -> Ok Stall
          | [ "truncate" ] -> Ok Truncate
          | [ "garble-req" ] -> Ok Garble_req
          | [ "garble-resp" ] -> Ok Garble_resp
          | [ "disconnect" ] -> Ok Disconnect
          | [ "delay"; v ] -> (
            match float_of_string_opt v with
            | Some s when Float.is_finite s && s >= 0. -> Ok (Delay s)
            | _ ->
              E.parse_error ~line:lineno ~col:1
                "chaos: delay needs a non-negative finite seconds value, \
                 got %S" v)
          | other ->
            E.parse_error ~line:lineno ~col:1 "chaos: unknown fault %S"
              (String.concat " " other)
        in
        Ok (Some { conn; req; fault }))
      | _ ->
        E.parse_error ~line:lineno ~col:1
          "chaos: expected \"conn C req R <fault>\", got %S" trimmed
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line lineno line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some spec) -> go (lineno + 1) (spec :: acc) rest
      | Error _ as e -> e)
  in
  go 1 [] lines

(* Hash-seeded generation: deterministic in (seed, conns, severity),
   stateless, jobs-invariant.  Every fourth connection is clean by
   construction — the guarantee the retry-budget certification leans
   on. *)
let gen ~seed ~conns ~severity =
  let severity = Float.max 0. (Float.min 1. severity) in
  let h salt i = Hashtbl.hash (seed, i, salt) in
  let specs = ref [] in
  for i = conns - 1 downto 0 do
    if i mod 4 <> 3 && float_of_int (h "p" i land 0xFFFF) /. 65536. < severity
    then begin
      let req = h "req" i mod 3 in
      let fault =
        match h "kind" i mod 7 with
        | 0 -> Drop
        | 1 -> Delay (0.001 +. (0.001 *. float_of_int (h "delay" i mod 8)))
        | 2 -> Stall
        | 3 -> Truncate
        | 4 -> Garble_req
        | 5 -> Garble_resp
        | _ -> Disconnect
      in
      specs := { conn = i; req; fault } :: !specs
    end
  done;
  !specs

(* ------------------------------------------------------------------ *)
(* The proxy                                                           *)

type t = {
  endpoint : Endpoint.t;
  upstream : Endpoint.address;
  faults : (int * int, fault) Hashtbl.t;
}

let address t = Endpoint.address t.endpoint

let garble line =
  (* Overwrite the middle third with 0x01 — bytes no canonical protocol
     line contains, so the damage is detectable, never silently
     reinterpreted as a different valid message. *)
  let n = String.length line in
  if n = 0 then "\x01"
  else
    String.mapi
      (fun i c ->
        if i >= n / 3 && i < max ((n / 3) + 1) (2 * n / 3) then '\x01' else c)
      line

(* Keep reading (and discarding) until the peer gives up: the stalled
   connection stays open but mute, which is what distinguishes [Stall]
   from [Disconnect] for the client's failure detector. *)
let black_hole reader =
  let rec go () =
    match Wire.read_line reader with
    | Wire.Line _ -> go ()
    | Wire.Eof | Wire.Eof_mid_line | Wire.Deadline -> ()
  in
  go ()

let relay t conn_idx client_fd =
  match Client.connect t.upstream with
  | Error _ -> ()
  | Ok up ->
    let reader = Wire.reader client_fd in
    let deliver line =
      match Wire.write_line client_fd line with Ok () -> true | Error `Closed -> false
    in
    let rec loop req_idx =
      match Wire.read_line reader with
      | Wire.Eof | Wire.Eof_mid_line | Wire.Deadline -> ()
      | Wire.Line line -> (
        match Hashtbl.find_opt t.faults (conn_idx, req_idx) with
        | Some Drop -> loop (req_idx + 1)
        | Some Stall -> black_hole reader
        | Some Disconnect -> ()
        | fault -> (
          let forward =
            match fault with Some Garble_req -> garble line | _ -> line
          in
          match Client.request_line up forward with
          | Error _ -> ()
          | Ok reply -> (
            match fault with
            | Some Truncate ->
              (* Half the reply, no terminator, then hang up: the
                 client's reader sees Eof_mid_line. *)
              let cut = String.sub reply 0 (String.length reply / 2) in
              ignore (Wire.write_bytes client_fd cut)
            | Some (Delay s) ->
              Unix.sleepf s;
              if deliver reply then loop (req_idx + 1)
            | Some Garble_resp ->
              if deliver (garble reply) then loop (req_idx + 1)
            | _ -> if deliver reply then loop (req_idx + 1))))
    in
    loop 0;
    Client.close up

let start ~listen ~upstream plan =
  Result.map
    (fun endpoint ->
      let faults = Hashtbl.create 64 in
      List.iter (fun s -> Hashtbl.replace faults (s.conn, s.req) s.fault) plan;
      let t = { endpoint; upstream; faults } in
      Endpoint.serve endpoint (relay t);
      t)
    (Endpoint.listen listen)

let stop t = Endpoint.stop t.endpoint
