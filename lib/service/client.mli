(** Blocking client for the {!Server} wire protocol: one connection,
    synchronous request/response, typed errors — the building block of
    [dls client], [dls loadgen], {!Resilient} and perfbench.

    Built on {!Wire}, so requests and responses survive arbitrary
    packet fragmentation, [EINTR] is retried, and a vanished server
    surfaces as a typed error instead of an exception.  This client is
    deliberately naive about failures — one attempt, no reconnect; that
    is {!Resilient}'s job.

    Transport failures surface as [Error (Io_error _)]; a well-formed
    but negative server answer ([overloaded], [timeout], [shed],
    [error ...]) is [Ok response] — the request/response cycle worked,
    the payload just says no. *)

type t

(** Low-level failure of one request/response cycle. *)
type transport_error = [ `Closed | `Closed_mid_line | `Deadline ]

val transport_error_to_string : transport_error -> string

(** [connect address] opens one connection. *)
val connect : Endpoint.address -> (t, Dls.Errors.t) result

(** [request ?deadline_s t req] sends the canonical line for [req] and
    reads the response line, waiting at most [deadline_s] seconds
    (forever when omitted). *)
val request :
  ?deadline_s:float -> t -> Protocol.request -> (Protocol.response, Dls.Errors.t) result

(** [request_raw t line] sends [line] verbatim — for probing the server
    with malformed input. *)
val request_raw :
  ?deadline_s:float -> t -> string -> (Protocol.response, Dls.Errors.t) result

(** [request_line t line] is the undecoded cycle: send [line], return
    the raw reply line.  {!Resilient} inspects raw bytes for transit
    corruption before parsing, so it needs the reply pre-parse. *)
val request_line :
  ?deadline_s:float -> t -> string -> (string, transport_error) result

(** [close t] closes the connection.  Idempotent. *)
val close : t -> unit

(** [with_client address f] connects, runs [f], closes (also on
    exception). *)
val with_client : Endpoint.address -> (t -> 'a) -> ('a, Dls.Errors.t) result
