(** The scheduling daemon: the shell around the admission core
    ({!Admission}).

    Request path: a connection thread reads one line and parses it
    ({!Protocol.parse_request}).  [stats]/[health]/[hello] are answered
    inline.  Otherwise the request's {!Protocol.request_key} is looked
    up in the warm response cache (tier 1) and the shared store
    (tier 2); a miss goes to the core, which joins a duplicate of a
    request in flight (single flight, counted in [collapsed]), sheds a
    request that the budget predicts doomed, answers [overloaded] on a
    full queue, or queues a new job.  Those decisions, the budget
    verdict, brownout and the drain are the core's; the shell holds it
    under one mutex and one condition, and evaluates, renders, feeds
    both tiers and writes.

    An evaluation takes the job {!Admission.next} hands out, evaluates
    it with the mutex released, and gives its outcome to
    {!Admission.finish}; the reply line is rendered once and handed to
    the job and every duplicate that joined it.  With [jobs >= 2] the
    [jobs] participants of one {!Parallel.Pool}, on a domain of its
    own, each run an evaluator loop, so a fast request does not wait
    behind a slow one while another evaluator is idle.  With
    [jobs = 1] the connection thread that admitted a job evaluates the
    queue head itself (caller-runs): an uncontended request is
    evaluated on the thread that read it, and a fast request still
    waits behind a slow one.  A [solve] evaluates through
    [Dls.Solve ~mode:`Cached] ([`Exact] when the request says
    [fast=false] and brownout is off); the [repair_*] stats read 0.
    Single flight and the LP cache are always on.

    Graceful degradation: with a [timeout], admission is deadline-aware
    (the core's service-time EWMA predicts the queue wait), and an
    evaluation past the budget is answered [timeout]; with
    [brownout = true], sustained queue pressure forces every [solve]
    onto the certified fast pipeline (bit-identical answers, lower
    worst-case latency).  With [store = Some path], successful replies
    are appended to a checksummed crash-safe file ({!Store}) and kept in
    the warm response cache, both as the rendered reply line, so repeat
    requests, also after a restart, are answered at admission
    ([warm_hits], [store_hits]) with the stored bytes.

    The socket side (bind, accept, one thread per connection, the line
    loop) is the shared {!Endpoint}, as for {!Router} and {!Chaos}; a
    failed start leaves no descriptor open, and a Unix socket path that
    a live server still answers on is refused rather than taken over.

    {!stop} drains gracefully, in the endpoint's order: stop accepting
    and close the listening socket; then close the core, let the
    evaluations answer everything already admitted and end the
    evaluator pool; then shut down the reading side of every connection
    and join its thread; then unlink the socket path and close the
    store.  After [stop] returns, no request is in flight and the
    counters satisfy [accepted = served + timed_out + failed + shed]. *)

(** {!Endpoint.address}, re-exported with its constructors. *)
type address = Endpoint.address =
  | Unix_socket of string  (** path; created on start, unlinked on stop *)
  | Tcp of string * int  (** host, port; port 0 picks a free port *)

type config = {
  address : address;
  jobs : int;
      (** evaluations at a time: evaluator loops, one per pool
          participant, or at [1] the admitting connection threads *)
  queue_capacity : int;
      (** admission bound: beyond it, [overloaded] (duplicates of a
          request in flight take no slot) *)
  timeout : float option;
      (** per-request budget, seconds.  An evaluation is not
          interrupted: the core's verdict answers [timeout] when it
          returns past the budget *)
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

(** [evaluate ~brownout request] is the reply the daemon's evaluation
    computes for a queueable [request], before the budget verdict;
    [brownout] runs a [solve] on the certified fast pipeline.  Raises
    on a request the solver rejects. *)
val evaluate : brownout:bool -> Protocol.request -> Protocol.response

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
