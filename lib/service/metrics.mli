(** Lock-free serving counters and latency histogram.

    Every counter is an {!Atomic}, so connection threads and the
    evaluations may record events concurrently without
    sharing a lock with the serving path; {!snapshot} is a read-only
    aggregation that never blocks a writer.  Latencies go into
    log-linear microsecond buckets, one per microsecond below 8 and 8
    per power of two above — quantiles are read as the largest value of
    the covering bucket, which never under-reports, over-reports by
    under 12.5%, and costs one atomic increment per observation.

    The counters live in one atomic array keyed by {!counter}; the
    implementation declares each counter once, beside the stats field
    it reports as, and {!snapshot} fills the record from those slots
    and a short list of values sampled elsewhere (LP cache, store,
    histogram, queue depth; the retired repair fields read 0) through
    {!Protocol.stats_of}, a loop over the stats field table.  Adding a
    server counter takes a field of {!Protocol.stats_rep} (both
    copies), a row of the stats table and a line of its zero seed in
    [protocol.ml], a constructor of {!counter} (both copies) and its
    line in the declaration — then [incr m New_counter] where the event
    happens. *)

type t

(** The server-side counters.  Each reports as the {!Protocol.stats_rep}
    field of the same name in lower case.  [Batches] and [Max_batch]
    are written by {!note_evaluation}, [Brownouts] by {!set_brownout};
    [Collapsed] counts the duplicates that joined an evaluation already
    in flight; [Inflight] is a gauge, raised at admission and lowered
    by {!decr} once the response is out. *)
type counter =
  | Accepted
  | Served
  | Rejected
  | Timed_out
  | Failed
  | Malformed
  | Batches
  | Max_batch
  | Collapsed
  | Shed
  | Brownouts
  | Hangups
  | Warm_hits
  | Store_hits
  | Store_misses
  | Store_demoted
  | Inflight

val create : unit -> t

val incr : t -> counter -> unit
val decr : t -> counter -> unit

(** [note_evaluation m ~answered] records one evaluation whose response
    answered [answered] admitted requests: the first and the duplicates
    that joined it. *)
val note_evaluation : t -> answered:int -> unit

(** [set_brownout m active] flips the brownout gauge; only the
    off→on edge increments the [brownouts] counter, so it counts
    activations, not evaluations spent browned out. *)
val set_brownout : t -> bool -> unit

val brownout_active : t -> bool

(** [observe_service m seconds] folds one request's evaluation time
    into the service-time EWMA (alpha 0.2) that deadline-aware
    admission divides by the worker count to predict queue wait. *)
val observe_service : t -> float -> unit

(** Current EWMA in seconds; 0.0 until the first observation. *)
val service_ewma : t -> float

(** [observe_latency m seconds] files one admission-to-response
    latency. *)
val observe_latency : t -> float -> unit

(** Quantile saturation bound: the latency histogram's last bucket is an
    overflow bucket with no meaningful upper edge, so any quantile
    landing there reports exactly this value — read it as
    [">= max_tracked_us"].  Quantiles of an empty histogram are 0. *)
val max_tracked_us : int

(** [snapshot m ~queue_depth] assembles the wire-level stats record;
    LP-cache counters are read from {!Dls.Lp_model.cache_stats}.
    [journal_appended] and [compactions] are the store's own counters
    ({!Store.stats}), 0 without [store]. *)
val snapshot : ?store:Store.stats -> t -> queue_depth:int -> Protocol.stats_rep
