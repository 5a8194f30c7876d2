(* Socket front end shared by the daemon, the router and the chaos
   proxy.  See endpoint.mli. *)

module E = Dls.Errors

type address = Unix_socket of string | Tcp of string * int

let to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let sockaddr = function
  | Unix_socket path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
    let inet addr = Ok (Unix.PF_INET, Unix.ADDR_INET (addr, port)) in
    match Unix.inet_addr_of_string host with
    | addr -> inet addr
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0 ->
        inet h_addr_list.(0)
      | _ | (exception Not_found) ->
        Error (E.Io_error (Printf.sprintf "cannot resolve host %S" host))))

let connect address =
  match sockaddr address with
  | Error _ as e -> e
  | Ok (domain, addr) -> (
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception Unix.Unix_error (err, fn, _) ->
      close_quietly fd;
      Error (E.Io_error (Printf.sprintf "%s: %s" fn (Unix.error_message err))))

(* A socket file that accepts a connection is a live server's; one that
   refuses is stale and is unlinked, as is anything else at the path.
   With no file there, nothing is probed. *)
let claim_path path =
  if not (Sys.file_exists path) then Ok ()
  else
    match connect (Unix_socket path) with
    | Ok fd ->
      close_quietly fd;
      Error (E.Io_error (path ^ ": a live server is listening there"))
    | Error _ ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()

let bind address =
  let ( let* ) = Result.bind in
  let* domain, addr = sockaddr address in
  let* () =
    match address with Unix_socket path -> claim_path path | Tcp _ -> Ok ()
  in
  let failed (err, fn, arg) =
    Error
      (E.Io_error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)))
  in
  match Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, fn, arg) -> failed (err, fn, arg)
  | fd -> (
    match
      if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd 64;
      match (address, Unix.getsockname fd) with
      | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
      | _ -> address
    with
    | bound -> Ok (fd, bound)
    | exception Unix.Unix_error (err, fn, arg) ->
      close_quietly fd;
      failed (err, fn, arg))

type t = {
  fd : Unix.file_descr;
  bound : address;
  stopping : bool Atomic.t;
  stop_m : Mutex.t;
  mutable listener : Thread.t option;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  conns_m : Mutex.t;
  mutable next_conn : int;
}

let listen address =
  (* A peer vanishing mid-write must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Result.map
    (fun (fd, bound) ->
      {
        fd;
        bound;
        stopping = Atomic.make false;
        stop_m = Mutex.create ();
        listener = None;
        conns = Hashtbl.create 16;
        conns_m = Mutex.create ();
        next_conn = 0;
      })
    (bind address)

let address t = t.bound
let stopping t = Atomic.get t.stopping

let accept t handler =
  match Unix.accept ~cloexec:true t.fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    let run id =
      Fun.protect
        (fun () -> handler id fd)
        ~finally:(fun () ->
          Mutex.protect t.conns_m (fun () -> Hashtbl.remove t.conns id);
          close_quietly fd)
    in
    Mutex.protect t.conns_m (fun () ->
        let id = t.next_conn in
        t.next_conn <- id + 1;
        Hashtbl.add t.conns id (fd, Thread.create run id))

(* Poll-accept, so [stop] ends the loop with a flag instead of racing a
   close against a blocked [accept]. *)
let serve t handler =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> accept t handler
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  t.listener <- Some (Thread.create loop ())

let serve_lines t ~handle ~hangup =
  serve t (fun _ fd ->
      let reader = Wire.reader fd in
      let rec loop () =
        match Wire.read_line reader with
        | Wire.Line line -> (
          match handle line with
          | None -> loop ()
          | Some reply -> (
            match Wire.write_line fd reply with
            | Ok () -> loop ()
            | Error `Closed -> hangup ()))
        (* No read deadline is set, so [Deadline] cannot occur. *)
        | Wire.Eof | Wire.Deadline -> ()
        | Wire.Eof_mid_line -> hangup ()
      in
      loop ())

let stop ?(drain = ignore) t =
  Mutex.protect t.stop_m (fun () ->
      if not (Atomic.get t.stopping) then begin
        Atomic.set t.stopping true;
        Option.iter Thread.join t.listener;
        close_quietly t.fd;
        drain ();
        let conns =
          Mutex.protect t.conns_m (fun () ->
              Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
        in
        List.iter
          (fun (fd, _) ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          conns;
        List.iter (fun (_, thread) -> Thread.join thread) conns;
        match t.bound with
        | Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ()
      end)
