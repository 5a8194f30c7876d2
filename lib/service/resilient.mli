(** Retrying client with automatic reconnect and a circuit breaker —
    the client a fleet should actually run against a flaky network.

    Retry is safe because the protocol makes it so: a request's
    canonical line ({!Protocol.request_key}) fully determines its
    response (data-plane evaluations are pure), so re-sending the same
    line after a transport failure can only re-derive the same answer —
    idempotency keyed on the canonical renderer, no sequence numbers
    needed.

    What retries, what doesn't:
    - transport failures (connect refused, connection lost, per-attempt
      deadline expired): retry on a {e fresh} connection after a capped
      exponential backoff with seeded jitter;
    - transit corruption — a reply line carrying control bytes
      (canonical responses are printable ASCII, so any byte < 0x20 is
      damage), a reply that does not parse, or a [parse] error response
      to a line this client rendered canonically (the server cannot
      have received what was sent): retry, counted in [corrupt];
    - [overloaded]: backpressure, retry after backoff (no breaker
      penalty — the server answered, it is just busy);
    - [timeout], [shed]: {b authoritative} for the attempted budget —
      returned to the caller, not retried (the server already spent, or
      refused to spend, the budget; the deadline is the caller's);
    - every [ok ...] and non-[parse] [error ...] response: returned.

    The circuit breaker (per client instance) trips open after
    [breaker_threshold] consecutive transport/corruption failures;
    while open, requests fail immediately without touching the network
    until [breaker_cooldown] elapses, then one half-open probe is let
    through — success recloses the breaker, failure re-opens it for
    another cooldown.  Trips are counted in {!stats}. *)

type config = {
  address : Server.address;
  attempts : int;  (** max request/response attempts per call (>= 1) *)
  attempt_timeout : float option;  (** per-attempt deadline, seconds *)
  backoff_base : float;  (** first backoff, seconds; doubles per retry *)
  backoff_max : float;  (** backoff cap, seconds *)
  breaker_threshold : int;
      (** consecutive failures that trip the breaker open *)
  breaker_cooldown : float;  (** seconds open before the half-open probe *)
  jitter_seed : int;
      (** seeds the deterministic backoff jitter — same seed, same
          request, same attempt => same backoff, so chaos runs replay *)
}

(** attempts 4, attempt_timeout 250ms, backoff 10ms..200ms, breaker
    threshold 5 / cooldown 1s, jitter_seed 0. *)
val default_config : Server.address -> config

type t

type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

type stats = {
  attempts : int;  (** request/response cycles attempted *)
  retries : int;  (** attempts beyond each request's first *)
  reconnects : int;  (** fresh connections opened after a failure *)
  corrupt : int;  (** replies rejected as transit-corrupted *)
  breaker_opens : int;  (** times the breaker tripped open *)
  fast_fails : int;  (** requests refused locally by an open breaker *)
}

(** [create config] makes a client; no connection is opened until the
    first request. *)
val create : config -> t

(** [request t req] runs the retry loop for [req].  [Error] only when
    every attempt failed or the breaker is open. *)
val request : t -> Protocol.request -> (Protocol.response, Dls.Errors.t) result

val breaker : t -> breaker_state
val stats : t -> stats

(** [close t] drops the current connection, if any.  The client remains
    usable — the next request reconnects. *)
val close : t -> unit
