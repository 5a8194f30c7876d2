(** The scheduling daemon: socket listener, one bounded admission
    queue, and [jobs] evaluations at a time.

    Request path: a connection thread reads one line and parses it
    ({!Protocol.parse_request}).  [stats]/[health]/[hello] are answered
    inline.  Otherwise the request is looked up by its
    {!Protocol.request_key}: a duplicate of a request admitted and not
    yet answered joins that evaluation (single flight, counted in
    [collapsed]; it takes no queue slot), and a new key is offered to
    the bounded admission {!Queue} — a full queue answers [overloaded]
    immediately; that is the whole backpressure story, no hidden
    buffering.  One evaluation takes a job, evaluates it, feeds the
    cache tiers, and hands the rendered reply line to the job and
    every duplicate that joined it.  With [jobs >= 2] the [jobs]
    participants of one {!Parallel.Pool} each run an evaluator loop
    that pops the next job as soon as the last one is answered, so a
    free evaluator always takes the next job, and a fast request does
    not wait behind a slow one while another evaluator is idle; the
    pool runs on a domain of its own, so no evaluation holds the
    runtime lock the connection threads need.  With [jobs = 1] there is
    no evaluator thread: the connection thread that queued a job takes
    a single evaluation turn, evaluates the queue head (its own job or
    one queued before it) and then reads its own reply, so an
    uncontended request is evaluated on the thread that read it, and a
    fast request still waits behind a slow one.  A [solve] evaluates through [Dls.Solve ~mode:`Cached]
    ([`Exact] when the request says [fast=false] and brownout is off):
    an LP-cache miss runs the certified fast pipeline from scratch, with
    no neighbour probe, so the [repair_*] stats read 0.  Single flight
    and the LP cache are always on.

    Graceful degradation: with a [timeout] configured, admission is
    deadline-aware — when the service-time EWMA predicts a queue wait
    beyond the budget, the request is answered [shed] instead of being
    queued to die; with [brownout = true], three consecutive
    evaluations ending above 3/4 of queue capacity force every [solve]
    onto the certified fast pipeline (bit-identical answers, lower
    worst-case latency) until three end at or below 1/4.  With
    [store = Some path], successful responses are appended to a
    checksummed crash-safe file ({!Store}) and kept in a warm response
    cache, both as the rendered reply line; a restarted daemon reads
    them back on demand, so repeat requests are answered at admission
    time ([store_hits], then [warm_hits]) with the stored bytes.

    The socket side (bind, accept, one thread per connection, the line
    loop) is the shared {!Endpoint}, as for {!Router} and {!Chaos}; a
    failed start leaves no descriptor open, and a Unix socket path that
    a live server still answers on is refused rather than taken over.

    {!stop} drains gracefully, in the endpoint's order: stop accepting
    and close the listening socket; then this module's drain (close
    admission, let the evaluators answer everything already admitted,
    then end their pool; at [jobs = 1] the connection threads that
    queued those jobs answer them); then shut down the reading side of every
    connection and join its thread; then unlink the socket path and
    close the store.  After [stop] returns, no request is in flight and
    the counters satisfy [accepted = served + timed_out + failed +
    shed]. *)

(** {!Endpoint.address}, re-exported with its constructors. *)
type address = Endpoint.address =
  | Unix_socket of string  (** path; created on start, unlinked on stop *)
  | Tcp of string * int  (** host, port; port 0 picks a free port *)

type config = {
  address : address;
  jobs : int;
      (** evaluations at a time: evaluator loops, one per pool
          participant, or at [1] the connection threads in turn *)
  queue_capacity : int;
      (** admission bound: beyond it, [overloaded] (duplicates of a
          request in flight take no slot) *)
  timeout : float option;  (** per-request budget, seconds (cooperative) *)
  worker_delay : float;
      (** artificial seconds of work added to every evaluation (default
          0).  A test fake, kept in the config rather than on the
          command line: it makes overload, timeout, shed and
          capacity scenarios deterministic, because evaluation
          time is then a known sleep instead of solver time that varies
          with the host.  Only the tests of [test_service] and
          [test_scale] set it; nothing in production does *)
  store : string option;
      (** durable solution store path ({!Store}), the daemon's only
          durable state.  [Some] also enables the warm response cache
          (tier 1): an LRU miss consults the store before solving
          ([store_hits] / [store_misses] in the stats), fresh solutions
          are appended to it, and tier-1 evictions are counted as
          demotions.  Many shards may share one store file *)
  journal_max_bytes : int option;
      (** store byte budget: past it, an evaluator compacts the store
          down to the keys the warm cache still holds
          ({!Store.compact}); [None] never compacts.  [Some n] needs a
          [store] and [n >= 1] *)
  brownout : bool;
      (** enable the sustained-overload `Exact→`Fast downgrade *)
}

val default_config : address -> config

(** [max_batch_lp_vars] is the largest batch LP, counted in variables
    ([4 · loads · workers + 1]), that the daemon solves: a larger
    [solve-multi ... mode=batch] request is answered with
    [Invalid_scenario].  The exact batch solve grows steeply with this
    size (at most 0.19 s at 45 variables, several seconds for a p = 11
    two-load batch), and the request would hold an evaluator for all
    of it.  [dls solve-multi] is not capped. *)
val max_batch_lp_vars : int

type t

(** [start config] binds the socket and spawns the listener and, with
    [jobs >= 2], the evaluator loops.  [Error (Invalid_scenario _)] for
    a config that cannot work (a bound below 1, or a [journal_max_bytes] without a store or
    below 1); [Error (Io_error _)] when the address cannot be bound, a
    live server holds the Unix socket path, or the store cannot be
    opened. *)
val start : config -> (t, Dls.Errors.t) result

(** [stop t] drains and shuts everything down; idempotent, returns only
    once every thread is joined and the socket is closed (and, for
    {!Unix_socket}, unlinked). *)
val stop : t -> unit

(** [address t] is the bound address — with the actual port when the
    config said [Tcp (_, 0)]. *)
val address : t -> address

val stats : t -> Protocol.stats_rep
val health : t -> Protocol.health_rep
