(** Consistent-hash front router: one endpoint, N daemon shards.

    The router is the fleet's front door.  It accepts client
    connections speaking the {e unchanged} v2 line protocol and proxies
    each request to a backend daemon shard chosen by consistent-hashing
    the request's canonical key ({!Protocol.request_key}) onto a
    {!Ring} — so equal requests always reach the same shard, and the
    shard-local single-flight collapse and response LRU keep
    their full effect behind the router for free.

    Per backend the router keeps a pool of {!Resilient} clients:
    {!Wire}-framed connections with the retry/backoff/circuit-breaker
    policy, reused across front connections instead of dialling per
    request.  When every resilient attempt at the owning shard fails
    (shard down, breaker open), the request {b fails over} along the
    ring's successor order — the very shards that would own the key if
    the dead one left the ring — so a shard kill degrades capacity,
    not availability, and the keys it owned migrate exactly as the
    minimal-remap property prescribes.  Correctness is unaffected:
    evaluations are pure, any shard computes the bit-identical answer.

    Control plane: [hello] is answered locally (the router speaks the
    same protocol version); [stats] and [health] are fanned out to
    every shard and merged ({!Protocol.merge_stats}; health is the
    worst-of), so one probe sees the whole fleet.  Malformed lines and
    unknown verbs are answered locally without touching a shard.

    The front socket is the shared {!Endpoint}, the daemon's own: the
    same bind (no descriptor leaked on failure, a live Unix socket path
    refused), the same line loop, and [SIGPIPE] ignored, so a SIGKILLed
    shard surfaces as a failed backend write, never the router's
    death. *)

type config = {
  address : Endpoint.address;  (** front address clients connect to *)
  shard_addresses : Endpoint.address list;  (** the backend daemons *)
  attempts : int;  (** resilient attempts per shard before failover *)
  attempt_timeout : float option;  (** per-attempt deadline, seconds *)
}

(** attempts 2, attempt_timeout 1s — failover to the next shard is the
    router's retry budget, so per-shard attempts stay small.  Every
    router puts 128 points per shard on its ring, which keeps the key
    balance within about 20% of even across realistic fleet sizes;
    fewer points make the arc-length variance (~1/sqrt vnodes)
    dominate. *)
val default_config :
  Endpoint.address -> shard_addresses:Endpoint.address list -> config

type t

(** Router-side counters — the wire [stats] answer is the {e merged
    shard} view; these count what the router itself did and are read
    by tests and the [dls route] shutdown line. *)
type stats = {
  r_requests : int;  (** request lines handled (all verbs) *)
  r_routed : int array;  (** data-plane requests answered by shard [i] *)
  r_failovers : int;
      (** data-plane requests answered by a shard other than the
          ring owner (after the owner's resilient budget failed) *)
  r_unavailable : int;  (** requests every shard failed to answer *)
  r_local : int;  (** answered without touching a shard *)
  r_fanouts : int;  (** [stats]/[health] fan-out rounds *)
  r_hangups : int;  (** front connections lost mid-request *)
}

(** [start config] binds the front socket and starts serving.
    [Error (Io_error _)] when the address cannot be bound, a live server
    holds the Unix socket path, or the shard list is empty.  Shards are {e not} contacted at start — a dead
    shard surfaces per-request, through the failover path. *)
val start : config -> (t, Dls.Errors.t) result

(** [stop t] stops accepting, shuts down the reading side of every
    front connection and waits out the requests in progress, then
    closes every pooled backend client.  Idempotent. *)
val stop : t -> unit

(** Bound front address (actual port for [Tcp (_, 0)]). *)
val address : t -> Endpoint.address

val stats : t -> stats

(** The placement function, exposed for tests: which shard index owns
    this canonical key. *)
val shard_of_key : t -> string -> int
