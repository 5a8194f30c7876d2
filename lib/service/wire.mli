(** Buffered line I/O over raw sockets, shared by the server's
    connection threads, {!Client}, {!Resilient} and the {!Chaos} proxy.

    The stdlib channel pair the service used before PR 9 hid two
    failure modes: [input_line] cannot carry a deadline, and a peer
    vanishing mid-write surfaced as an unclassified [Sys_error].  This
    module reads and writes file descriptors directly:

    - {b framing}: a {!reader} buffers whatever [read] returns and
      hands out complete ['\n']-terminated lines — bytes split across
      arbitrary packet boundaries (even one byte per packet) reassemble
      correctly, and a trailing ['\r'] is stripped;
    - {b signals}: every [read]/[write]/[select] retries [EINTR], so a
      signal delivery (SIGTERM during drain, profiling timers) never
      tears a connection down half-way;
    - {b peer death}: [EPIPE]/[ECONNRESET] and friends are returned as
      typed outcomes ({!Eof}, {!Eof_mid_line}, [`Closed]), never raised
      — a client vanishing mid-response must not kill the thread that
      was serving it (the process ignores [SIGPIPE]; see
      {!Endpoint.listen});
    - {b deadlines}: {!read_line} takes an optional per-call budget
      measured on the monotonic clock, the building block of the
      resilient client's per-attempt deadline. *)

type reader

(** [reader fd] wraps [fd] with an empty line buffer.  The reader owns
    nothing: closing [fd] is the caller's business. *)
val reader : Unix.file_descr -> reader

type read_result =
  | Line of string  (** one complete line, ['\n'] (and ['\r']) stripped *)
  | Eof  (** peer closed at a line boundary *)
  | Eof_mid_line
      (** peer closed (or reset) with a partial line buffered — the
          partial data is discarded, not delivered as a line *)
  | Deadline
      (** the budget expired before a full line arrived; buffered bytes
          are kept, but a protocol client must treat the stream as
          desynchronised (the reply may land after the caller gave up) *)

(** [read_line ?deadline_s r] returns the next complete line, blocking
    up to [deadline_s] seconds (forever when omitted).  [EINTR] is
    retried; connection resets are reported as EOF outcomes.  Never
    raises on I/O errors. *)
val read_line : ?deadline_s:float -> reader -> read_result

(** [write_line fd s] writes [s ^ "\n"] fully, retrying [EINTR] and
    short writes.  Any write error ([EPIPE], [ECONNRESET], a closed
    descriptor, ...) is [Error `Closed]: for a stream socket they all
    mean the peer is gone.  Never raises. *)
val write_line : Unix.file_descr -> string -> (unit, [ `Closed ]) result

(** [write_bytes fd s] is {!write_line} without the terminator — for
    deliberately partial frames (the chaos proxy's truncation fault). *)
val write_bytes : Unix.file_descr -> string -> (unit, [ `Closed ]) result
