(** The scheduling daemon: socket listener, sharded admission queue,
    batching dispatchers, worker pool.

    Request path: a connection thread reads one line, parses it
    ({!Protocol.parse_request}) and offers a job to the bounded
    admission buffer — sharded by {!Protocol.request_key} hash across
    [dispatchers] queues ({!Shards}).  [stats]/[health] are answered
    inline; a full shard answers [overloaded] immediately — that is the
    whole backpressure story, no hidden buffering.  Each dispatcher
    thread drains its own shard in rounds of at most [max_batch] jobs,
    collapses jobs with equal request key onto one evaluation
    (single-flight batching; duplicates receive the same response —
    key-hash sharding guarantees duplicates meet in the same
    dispatcher), runs the unique requests on the shared
    {!Parallel.Pool} (which runs concurrent rounds side by side, each
    caller claiming from its own round while the workers help), and
    hands every job its reply.  A dispatcher
    whose shard runs dry steals a round from the longest other shard,
    so skewed traffic cannot idle dispatchers (counted in the [steals]
    stat).  A [solve] evaluates through [Dls.Solve ~mode:`Cached]
    ([`Exact] when the request says [fast=false] and brownout is off):
    an LP-cache miss runs the certified fast pipeline from scratch, with
    no neighbour probe, so the [repair_*] stats read 0.  Collapse and
    the LP cache are always on.

    Graceful degradation (PR 9): with a [timeout] configured, admission
    is deadline-aware — when the service-time EWMA predicts a queue
    wait beyond the budget, the request is answered [shed] instead of
    being queued to die; with [brownout = true], three consecutive
    dispatch rounds ending above 3/4 of queue capacity force every
    [solve] onto the certified fast pipeline (bit-identical answers,
    lower worst-case latency) until three rounds end at or below 1/4.
    With [store = Some path], successful responses are appended to a
    checksummed crash-safe file ({!Store}) and kept in a warm response
    cache; a restarted daemon reads them back on demand, so repeat
    requests are answered at admission time ([store_hits], then
    [warm_hits]).

    The socket side (bind, accept, one thread per connection, the line
    loop) is the shared {!Endpoint}, as for {!Router} and {!Chaos}; a
    failed start leaves no descriptor open, and a Unix socket path that
    a live server still answers on is refused rather than taken over.

    {!stop} drains gracefully, in the endpoint's order: stop accepting
    and close the listening socket; then this module's drain (close
    admission, let every dispatcher finish everything already admitted,
    shut the pool down); then shut down the reading side of every
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
  jobs : int;  (** worker-pool parallelism *)
  dispatchers : int;
      (** dispatcher threads, each owning one admission shard
          (default 1, which behaves exactly like the pre-sharding
          single-queue server) *)
  queue_capacity : int;
      (** total admission bound, split evenly across shards — beyond a
          shard's share, [overloaded] *)
  max_batch : int;  (** dispatcher round size *)
  timeout : float option;  (** per-request budget, seconds (cooperative) *)
  worker_delay : float;
      (** artificial seconds of work added to every evaluation (default
          0).  A test fake, kept in the config rather than on the
          command line: it makes overload, timeout, shed and
          shard-capacity scenarios deterministic, because evaluation
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
      (** store byte budget: past it, a dispatcher compacts the store
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
    size (up to 0.45 s at 45 variables, several seconds for a p = 11
    two-load batch), and the request would hold a pool worker for all
    of it.  [dls solve-multi] is not capped. *)
val max_batch_lp_vars : int

type t

(** [start config] binds the socket and spawns the listener, dispatcher
    and pool.  [Error (Invalid_scenario _)] for a config that cannot
    work (a bound below 1, or a [journal_max_bytes] without a store or
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
