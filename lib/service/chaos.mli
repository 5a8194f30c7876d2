(** Deterministic fault-injecting socket proxy — the network's
    counterpart of {!Dls.Faults}.

    The proxy sits between a client and a real {!Server}, relaying the
    line protocol request by request, and injects faults from a {e
    plan}: a finite set of perturbations keyed by [(connection index,
    request index)], where connections are numbered in accept order and
    requests in line order within their connection.  Keying by
    connection/request — never by time or by server configuration —
    makes a plan replayable and jobs-invariant, exactly like a
    {!Dls.Faults} plan: the same plan against the same client produces
    the same fault at the same point of the conversation, whatever the
    daemon's [--jobs] or the machine's speed.

    Fault semantics, per kind:
    - [Drop]: the request line is read and discarded — the upstream
      never sees it, the client gets no reply (its deadline fires);
    - [Delay s]: the reply is held for [s] seconds before delivery;
    - [Stall]: the proxy stops relaying this connection without closing
      it — the client's deadline fires against a live-but-dead peer;
    - [Truncate]: only a prefix of the reply is written, without the
      line terminator, and the connection is closed mid-line;
    - [Garble_req]: control bytes (0x01) overwrite part of the request
      before forwarding — the server sees a line that cannot be the
      canonical rendering it would have received, answers [error
      parse ...], and a resilient client treats that as transit damage;
    - [Garble_resp]: control bytes overwrite part of the reply —
      detectable because canonical responses are printable ASCII;
    - [Disconnect]: the connection is closed at a line boundary after
      reading the request, before any reply.

    Connections beyond the plan are relayed untouched.

    The listening side is the shared {!Endpoint}: connections are
    numbered in its accept order, and the proxy ignores [SIGPIPE], so
    an upstream that dies under a relayed request closes that one
    client connection and the proxy serves the next. *)

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

val fault_to_string : fault -> string

(** {1 Text format}

    One fault per line — [conn C req R <fault>] where [<fault>] is
    [drop], [stall], [truncate], [garble-req], [garble-resp],
    [disconnect] or [delay S] — with [#] comments and blank lines
    ignored:

    {v
    # dls chaos v1
    conn 0 req 1 delay 0.005
    conn 2 req 0 garble-resp
    v} *)

val to_string : plan -> string

(** [of_string s] parses a plan; malformed input yields a typed
    {!Dls.Errors.Parse_error} with 1-based line/column positions, never
    an exception. *)
val of_string : string -> (plan, Dls.Errors.t) result

(** [gen ~seed ~conns ~severity] draws a replayable plan over [conns]
    connections.  [severity] in [[0, 1]] scales the fraction of faulted
    connections; every fourth connection (index [3 mod 4]) is always
    left clean, so a client whose retry budget covers a handful of
    fresh connections is guaranteed to land on an unfaulted one.
    Deterministic in its arguments alone (hash-seeded, no RNG state). *)
val gen : seed:int -> conns:int -> severity:float -> plan

type t

(** [start ~listen ~upstream plan] binds [listen] and relays every
    accepted connection to [upstream] under [plan].  Like
    {!Server.start}, [Tcp (_, 0)] picks a free port, and a live Unix
    socket path is refused. *)
val start :
  listen:Endpoint.address ->
  upstream:Endpoint.address ->
  plan ->
  (t, Dls.Errors.t) result

(** The bound listen address, with the actual port. *)
val address : t -> Endpoint.address

(** [stop t] closes the listener, shuts down the reading side of every
    relayed connection and waits for its thread.  Idempotent. *)
val stop : t -> unit
