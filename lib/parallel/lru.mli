(** Size-bounded LRU memo cache, safe for concurrent use from multiple
    domains (a single {!Mutex} guards the table; the expensive compute
    in {!find_or_compute} runs {e outside} the lock).

    Intended for memoising pure functions whose results are structurally
    identical whenever the keys are equal — e.g. exact LP solutions
    keyed by a canonical scenario fingerprint.  {!find_or_compute}
    collapses concurrent misses on one key into a single callback run,
    so a server fielding many concurrent identical requests computes
    each answer once. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  joins : int;
      (** {!find_or_compute} calls that joined another domain's
          in-flight compute instead of hitting or computing *)
  evictions : int;
  size : int;  (** current number of entries *)
  capacity : int;
}

(** [create ~capacity ()] is an empty cache holding at most [capacity]
    entries (least-recently-used evicted first).  [capacity <= 0]
    disables caching: every lookup misses and nothing is stored.

    [on_evict] (optional) observes every capacity eviction — the hook
    the service layer uses to count tier-1 → tier-2 cache demotions.
    It runs {e with the cache lock held}, so it must be cheap and must
    not touch this cache (a counter increment, not a recompute).  It is
    not called for {!clear} or for an {!add} that replaces an existing
    key. *)
val create :
  ?capacity:int -> ?on_evict:('k -> 'v -> unit) -> unit -> ('k, 'v) t

(** [find t k] is the cached value for [k], refreshing its recency. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v] inserts (or refreshes) [k -> v], evicting the
    least-recently-used entry if the cache is full. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** [find_or_compute t k compute] returns the cached value for [k], or
    runs [compute ()] (outside the cache lock), stores and returns it.
    If an {!add} raced it to the same key, the already-stored value is
    returned so all callers observe one canonical entry.  It is {e single
    flight}: if another domain is already computing [k], the call blocks
    until that flight lands and returns its value instead of computing
    again (counted in [stats.joins]).  Exactly one [compute] runs per
    key while the entry stays cached.  If the in-flight compute raises,
    its waiters transparently retry (one of them becomes the new
    computer); the exception propagates only to the caller whose
    callback raised.  The flight's value is pinned to the flight record
    before the waiters wake, so joiners receive it even when an insert
    burst evicts the freshly cached entry first — eviction pressure can
    never force a joiner to recompute a landed flight.  Sequentially,
    a call is one miss (and one compute) or one hit, never a join. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val mem : ('k, 'v) t -> 'k -> bool
val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

(** [stats t] is a snapshot of hit/miss/join/eviction counters. *)
val stats : ('k, 'v) t -> stats

(** [clear t] drops all entries and resets the counters. *)
val clear : ('k, 'v) t -> unit
