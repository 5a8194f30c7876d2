(* Buckets are [2^i, 2^(i+1)) microseconds; 40 buckets cover up to
   ~2^40 us ≈ 12.7 days, far past any request budget. *)
let buckets = 40

type t = {
  accepted : int Atomic.t;
  served : int Atomic.t;
  rejected : int Atomic.t;
  timed_out : int Atomic.t;
  failed : int Atomic.t;
  malformed : int Atomic.t;
  batches : int Atomic.t;
  max_batch : int Atomic.t;
  collapsed : int Atomic.t;
  inflight : int Atomic.t;
  steals : int Atomic.t;
  shed : int Atomic.t;
  brownouts : int Atomic.t;
  brownout_active : bool Atomic.t;
  hangups : int Atomic.t;
  warm_hits : int Atomic.t;
  store_hits : int Atomic.t;
  store_misses : int Atomic.t;
  store_demoted : int Atomic.t;
  retries : int Atomic.t;
  breaker_opens : int Atomic.t;
  (* EWMA of per-request service time, stored as float bits so a CAS
     loop can update it without a lock.  Admission divides this by the
     worker count to predict queue wait. *)
  service_ewma_bits : int Atomic.t;
  histogram : int Atomic.t array;
  max_us : int Atomic.t;
  started : float;  (* monotonic (Clock.now), not wall time *)
}

let create () =
  {
    accepted = Atomic.make 0;
    served = Atomic.make 0;
    rejected = Atomic.make 0;
    timed_out = Atomic.make 0;
    failed = Atomic.make 0;
    malformed = Atomic.make 0;
    batches = Atomic.make 0;
    max_batch = Atomic.make 0;
    collapsed = Atomic.make 0;
    inflight = Atomic.make 0;
    steals = Atomic.make 0;
    shed = Atomic.make 0;
    brownouts = Atomic.make 0;
    brownout_active = Atomic.make false;
    hangups = Atomic.make 0;
    warm_hits = Atomic.make 0;
    store_hits = Atomic.make 0;
    store_misses = Atomic.make 0;
    store_demoted = Atomic.make 0;
    retries = Atomic.make 0;
    breaker_opens = Atomic.make 0;
    service_ewma_bits = Atomic.make (Int64.to_int (Int64.bits_of_float 0.0));
    histogram = Array.init buckets (fun _ -> Atomic.make 0);
    max_us = Atomic.make 0;
    started = Parallel.Clock.now ();
  }

let incr_accepted t = Atomic.incr t.accepted
let incr_served t = Atomic.incr t.served
let incr_rejected t = Atomic.incr t.rejected
let incr_timed_out t = Atomic.incr t.timed_out
let incr_failed t = Atomic.incr t.failed
let incr_malformed t = Atomic.incr t.malformed
let incr_inflight t = Atomic.incr t.inflight
let decr_inflight t = Atomic.decr t.inflight
let incr_steals t = Atomic.incr t.steals
let incr_shed t = Atomic.incr t.shed
let incr_hangups t = Atomic.incr t.hangups
let incr_warm_hits t = Atomic.incr t.warm_hits
let incr_store_hits t = Atomic.incr t.store_hits
let incr_store_misses t = Atomic.incr t.store_misses
let incr_store_demoted t = Atomic.incr t.store_demoted
let incr_retries t = Atomic.incr t.retries
let incr_breaker_opens t = Atomic.incr t.breaker_opens

let set_brownout t active =
  (* Count only the off->on edge so [brownouts] is "times we browned
     out", not "rounds spent browned out". *)
  if active && not (Atomic.exchange t.brownout_active true) then
    Atomic.incr t.brownouts
  else if not active then Atomic.set t.brownout_active false

let brownout_active t = Atomic.get t.brownout_active
let steals t = Atomic.get t.steals
let inflight t = Atomic.get t.inflight
let accepted t = Atomic.get t.accepted
let served t = Atomic.get t.served
let timed_out t = Atomic.get t.timed_out
let failed t = Atomic.get t.failed
let rejected t = Atomic.get t.rejected
let collapsed t = Atomic.get t.collapsed
let shed t = Atomic.get t.shed
let brownouts t = Atomic.get t.brownouts
let hangups t = Atomic.get t.hangups
let warm_hits t = Atomic.get t.warm_hits
let store_hits t = Atomic.get t.store_hits
let store_misses t = Atomic.get t.store_misses
let store_demoted t = Atomic.get t.store_demoted
let retries t = Atomic.get t.retries
let breaker_opens t = Atomic.get t.breaker_opens

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v <= cur then ()
  else if Atomic.compare_and_set cell cur v then ()
  else atomic_max cell v

let note_batch t ~size ~unique =
  Atomic.incr t.batches;
  atomic_max t.max_batch size;
  if size > unique then
    ignore (Atomic.fetch_and_add t.collapsed (size - unique))

let bucket_of_us us =
  let rec go i bound = if us < bound || i = buckets - 1 then i else go (i + 1) (bound * 2) in
  go 0 2

let observe_latency t seconds =
  let us = int_of_float (Float.max 0. (seconds *. 1e6)) in
  Atomic.incr t.histogram.(bucket_of_us us);
  atomic_max t.max_us us

(* EWMA with alpha = 0.2: heavy enough on history to ride out one odd
   request, light enough to track a regime change within ~10 requests.
   First observation seeds the average directly. *)
let rec observe_service t seconds =
  let old_bits = Atomic.get t.service_ewma_bits in
  let old = Int64.float_of_bits (Int64.of_int old_bits) in
  let next = if old <= 0.0 then seconds else (0.8 *. old) +. (0.2 *. seconds) in
  let next_bits = Int64.to_int (Int64.bits_of_float next) in
  if not (Atomic.compare_and_set t.service_ewma_bits old_bits next_bits) then
    observe_service t seconds

let service_ewma t =
  Int64.float_of_bits (Int64.of_int (Atomic.get t.service_ewma_bits))

(* The last bucket is an overflow bucket: it holds everything at or
   past the last finite boundary, so it has no meaningful upper bound.
   Quantiles landing there saturate at this value (read: ">= 2^39 us")
   instead of fabricating a 2^40 us "upper bound" no observation ever
   had. *)
let max_tracked_us = 1 lsl (buckets - 1)

(* Upper bound of the bucket holding the q-th observation; 0 on an
   empty histogram, saturated at [max_tracked_us] for the overflow
   bucket. *)
let quantile counts total q =
  if total = 0 then 0
  else
    let target =
      let t = int_of_float (ceil (float_of_int total *. q)) in
      if t < 1 then 1 else if t > total then total else t
    in
    let rec go i seen =
      if i >= buckets then max_tracked_us
      else
        let seen = seen + counts.(i) in
        if seen >= target then
          if i >= buckets - 1 then max_tracked_us else 1 lsl (i + 1)
        else go (i + 1) seen
    in
    go 0 0

let snapshot ?(dispatchers = 1) ?store t ~queue_depth : Protocol.stats_rep =
  let counts = Array.map Atomic.get t.histogram in
  let total = Array.fold_left ( + ) 0 counts in
  let cache = Dls.Lp_model.cache_stats () in
  let resolve = Dls.Lp_model.resolve_stats () in
  let durable =
    Option.value store
      ~default:{ Store.hits = 0; misses = 0; appended = 0; compactions = 0 }
  in
  {
    accepted = Atomic.get t.accepted;
    served = Atomic.get t.served;
    rejected = Atomic.get t.rejected;
    timed_out = Atomic.get t.timed_out;
    failed = Atomic.get t.failed;
    malformed = Atomic.get t.malformed;
    batches = Atomic.get t.batches;
    max_batch = Atomic.get t.max_batch;
    collapsed = Atomic.get t.collapsed;
    cache_hits = cache.Parallel.Lru.hits;
    cache_misses = cache.Parallel.Lru.misses;
    repair_probes = resolve.Dls.Lp_model.probes;
    repair_wins = resolve.Dls.Lp_model.repair_wins;
    repair_pivots = resolve.Dls.Lp_model.repair_pivots;
    dispatchers;
    steals = Atomic.get t.steals;
    shed = Atomic.get t.shed;
    brownouts = Atomic.get t.brownouts;
    hangups = Atomic.get t.hangups;
    warm_hits = Atomic.get t.warm_hits;
    journal_appended = durable.Store.appended;
    store_hits = Atomic.get t.store_hits;
    store_misses = Atomic.get t.store_misses;
    store_demoted = Atomic.get t.store_demoted;
    compactions = durable.Store.compactions;
    queue_depth;
    inflight = Atomic.get t.inflight;
    p50_us = quantile counts total 0.50;
    p90_us = quantile counts total 0.90;
    p99_us = quantile counts total 0.99;
    max_us = Atomic.get t.max_us;
    uptime_s = Parallel.Clock.elapsed_s ~since:t.started;
  }
