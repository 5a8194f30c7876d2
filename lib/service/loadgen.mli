(** Deterministic load generator for the daemon.

    The request stream depends only on [(seed, distinct, i)]: request
    [i] draws scenario [s = hash(seed, i) mod distinct], whose platform
    comes from {!Check.Fuzz.gen_platform} seeded by [(seed, s)] with the
    z-regime cycling [z<1], [z=1], [z>1] over [s] — so every run covers
    all three regimes of the paper, and two runs with the same seed
    issue the same multiset of requests whatever the connection count
    (connection [c] carries the requests with [i mod connections = c]).
    Small [distinct] values make the stream duplicate-heavy, which is
    what exercises the server's single-flight batching and the shared
    LP cache.

    One driver, {!run}, issues the stream closed-loop (each connection
    sends its next request as soon as the previous one is answered) or
    open-loop (each request waits for its seeded Poisson arrival), so
    closed- and open-loop numbers come from the same code path.  Used by
    the service tests, the CI smoke jobs and [dls loadgen]: all of them
    see the same traffic by construction. *)

type outcome = {
  sent : int;
  ok : int;
  overloaded : int;
  timeouts : int;
  shed : int;  (** [shed] responses (deadline-aware admission) *)
  failed : int;  (** transport errors and [error] responses *)
  goodput : int;
      (** [ok] responses that landed within [deadline_s] of being
          issued (client-side clock, retries included); equals [ok]
          when no deadline is set.  This is the number a user actually
          cares about under chaos — an answer after the deadline is
          throughput, not goodput. *)
  retries : int;  (** resilient arm only: attempts beyond each first *)
  breaker_opens : int;  (** resilient arm only: circuit-breaker trips *)
  p50_ms : float;  (** latency quantiles over [ok] responses, ms *)
  p99_ms : float;
  wall_s : float;
  rps : float;  (** ok responses per wall-clock second: the achieved rate *)
  offered_rps : float;
      (** open loop: the schedule's realised rate, [n / last arrival] —
          close to the target, not equal, since the schedule is one
          random draw; 0 in the closed loop *)
  max_lag_ms : float;
      (** open loop: the worst scheduling lag, how far behind its
          arrival time a request was issued because its connection was
          still busy — the saturation signal (a closed loop would have
          silently thinned the load instead); 0 in the closed loop *)
}

(** [request ~seed ~distinct i] is the [i]-th request of the stream.
    With [~multi:true] (default false) scenario slot 7 carries a
    [solve-multi] request (steady or batch by parity) instead of a
    [solve]; every other slot is bit-identical to the classic stream,
    so existing tests and smoke jobs are unaffected.

    [~skew] (default 0) selects the key-popularity distribution.  [0.]
    is the classic uniform draw over the [distinct] scenarios.  A
    positive value makes scenario rank [r] (0-based) proportional to
    [(r+1)^-skew] — Zipf-like, so e.g. [skew = 1.] sends a hot head of
    traffic to scenario 0 with a long tail.  The skewed stream is still
    a pure function of [(seed, distinct, skew, i)]: same seed, same
    multiset of requests, independent of connection count or server
    [jobs].  Skewed traffic repeats a few hot keys, which is what
    exercises the server's single flight and cache tiers. *)
val request :
  ?multi:bool -> ?skew:float -> seed:int -> distinct:int -> int ->
  Protocol.request

(** [run address ~connections ~requests ~seed ~distinct ()] replays the
    first [requests] requests of the stream over [connections]
    concurrent connections and aggregates the outcome: connection [c]
    sends the requests with [i mod connections = c], in order.  [~multi]
    and [~skew] are passed to {!request}.

    [~rps] makes the run open-loop: request [i] is issued no earlier
    than {!arrivals}[.(i)] at target rate [rps] ([rps > 0]).  The
    request multiset {e and} the arrival schedule are invariant under
    [connections]; only the issue interleaving changes.  Without it the
    loop is closed and [offered_rps] and [max_lag_ms] are 0.

    [~resilient] switches the per-connection client from the naive
    single-attempt {!Client} (which, after a transport failure, drops
    the request and reconnects to stay well-framed) to a {!Resilient}
    client with the given configuration (its [address] field is
    overridden by [address]); each connection gets its own breaker.

    [~deadline_s] is the per-request answer-by deadline used for the
    [goodput] count and, in the naive arm, as the read deadline of each
    cycle.  The request stream itself never depends on either option,
    so chaos runs stay seed-deterministic and connection-invariant. *)
val run :
  ?multi:bool ->
  ?skew:float ->
  ?resilient:Resilient.config ->
  ?deadline_s:float ->
  ?rps:float ->
  Server.address ->
  connections:int ->
  requests:int ->
  seed:int ->
  distinct:int ->
  unit ->
  (outcome, Dls.Errors.t) result

(** [arrivals ~seed ~rps n] is the open-loop schedule: arrival time of
    request [i], as the prefix sum of exponential inter-arrival gaps
    with mean [1/rps] — a Poisson process at target rate [rps].  Each
    gap is derived from a hash of [(seed, i)], so the schedule is a
    pure function of its arguments, identical for every connection
    count.  Monotone nondecreasing.
    @raise Invalid_argument when [rps <= 0]. *)
val arrivals : seed:int -> rps:float -> int -> float array
