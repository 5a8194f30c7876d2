(** Lock-free serving counters and latency histogram.

    Every counter is an {!Atomic}, so connection threads, the
    dispatcher, and pool workers may record events concurrently without
    sharing a lock with the serving path; {!snapshot} is a read-only
    aggregation that never blocks a writer.  Latencies go into
    power-of-two microsecond buckets — quantiles are read as the upper
    bound of the covering bucket, which over-reports by at most 2x and
    costs one atomic increment per observation. *)

type t

val create : unit -> t

val incr_accepted : t -> unit
val incr_served : t -> unit
val incr_rejected : t -> unit
val incr_timed_out : t -> unit
val incr_failed : t -> unit
val incr_malformed : t -> unit

(** [note_batch m ~size ~unique] records one dispatcher round over
    [size] admitted requests collapsed onto [unique] evaluations. *)
val note_batch : t -> size:int -> unique:int -> unit

val incr_inflight : t -> unit
val decr_inflight : t -> unit

(** [incr_steals m] records one dispatch round whose first job was
    stolen from another dispatcher's shard. *)
val incr_steals : t -> unit

(** Resilience counters (PR 9).  Server side: [shed] requests turned
    away by deadline-aware admission, [hangups] connections lost
    mid-request or before their response was written, [warm_hits]
    requests answered from the tier-1 response cache.  Client side ({!Resilient} keeps its
    own [t]): [retries] re-sent attempts and [breaker_opens] circuit
    trips — both are rendered into loadgen/bench reports rather than
    the server's wire stats line. *)
val incr_shed : t -> unit

val incr_hangups : t -> unit
val incr_warm_hits : t -> unit

(** Scale-out counters (PR 10): tier-2 store probes at admission
    ([store_hits]/[store_misses]) and tier-1 response-cache evictions
    demoted to store-only residency ([store_demoted]). *)
val incr_store_hits : t -> unit

val incr_store_misses : t -> unit
val incr_store_demoted : t -> unit
val incr_retries : t -> unit
val incr_breaker_opens : t -> unit

(** [set_brownout m active] flips the brownout gauge; only the
    off→on edge increments the [brownouts] counter, so it counts
    activations, not rounds spent browned out. *)
val set_brownout : t -> bool -> unit

val brownout_active : t -> bool

(** [observe_service m seconds] folds one request's evaluation time
    into the service-time EWMA (alpha 0.2) that deadline-aware
    admission divides by the worker count to predict queue wait. *)
val observe_service : t -> float -> unit

(** Current EWMA in seconds; 0.0 until the first observation. *)
val service_ewma : t -> float

val steals : t -> int
val inflight : t -> int
val accepted : t -> int
val served : t -> int
val timed_out : t -> int
val failed : t -> int
val rejected : t -> int
val collapsed : t -> int
val shed : t -> int
val brownouts : t -> int
val hangups : t -> int
val warm_hits : t -> int
val store_hits : t -> int
val store_misses : t -> int
val store_demoted : t -> int
val retries : t -> int
val breaker_opens : t -> int

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
    [dispatchers] (default 1) is configuration, not a counter — the
    server passes its dispatcher-thread count through.  [journal_appended]
    and [compactions] are the store's own counters ({!Store.stats}),
    0 without [store]. *)
val snapshot :
  ?dispatchers:int -> ?store:Store.stats -> t -> queue_depth:int ->
  Protocol.stats_rep
