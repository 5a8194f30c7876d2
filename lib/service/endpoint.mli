(** The socket front end shared by the daemon ({!Server}), the router
    ({!Router}) and the chaos proxy ({!Chaos}), and the connect half
    used by {!Client}.

    An endpoint owns one listening socket, a poll-accept thread and one
    thread per accepted connection, registered until its handler
    returns; the endpoint closes the connection's descriptor then.
    Callers bring only what they do with a connection.

    Binding never leaks a descriptor: a failed bind, listen or
    socket-option call closes the socket before {!listen} returns its
    error.  A Unix socket path that accepts a connection belongs to a
    live server and is refused; a path that refuses connections is a
    stale file left by a dead process and is reclaimed; when no file
    exists at the path, nothing is probed.  {!listen} also makes the
    process ignore [SIGPIPE], so a peer that vanishes mid-write is a
    typed {!Wire} error, never the death of the process. *)

type address =
  | Unix_socket of string  (** path; created on listen, unlinked on stop *)
  | Tcp of string * int  (** host, port; port 0 picks a free port *)

(** [to_string a] is the path of a Unix socket, [host:port] for TCP. *)
val to_string : address -> string

(** [connect address] opens one stream connection.  [Error (Io_error _)]
    when the host does not resolve or the connect fails. *)
val connect : address -> (Unix.file_descr, Dls.Errors.t) result

type t

(** [listen address] binds and listens.  No connection is accepted
    until {!serve}.  [Error (Io_error _)] when the host does not
    resolve, the address cannot be bound, or a live server holds the
    Unix socket path. *)
val listen : address -> (t, Dls.Errors.t) result

(** The bound address, with the actual port for [Tcp (_, 0)]. *)
val address : t -> address

(** [serve t handler] starts the accept thread.  Connection [i] (in
    accept order, from 0) runs [handler i fd] on its own thread. *)
val serve : t -> (int -> Unix.file_descr -> unit) -> unit

(** [serve_lines t ~handle ~hangup] serves the line protocol: each
    connection reads a line, answers it with [handle] ([None] sends
    nothing, [Some reply] writes the rendered reply line, without its
    newline), and calls [hangup] when the peer vanishes mid-line or
    before its reply is written. *)
val serve_lines :
  t ->
  handle:(string -> string option) ->
  hangup:(unit -> unit) ->
  unit

(** [true] from the moment {!stop} begins. *)
val stopping : t -> bool

(** [stop ?drain t] stops accepting and closes the listening socket,
    runs [drain], shuts down the reading side of every open connection
    (a blocked reader sees EOF, a reply in progress is still written),
    joins the connection threads and unlinks a Unix socket path.
    Idempotent: a later or concurrent call returns once the first one
    has finished, without running its own [drain]. *)
val stop : ?drain:(unit -> unit) -> t -> unit
