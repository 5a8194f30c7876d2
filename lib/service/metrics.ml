(* Log-linear latency buckets, in whole microseconds: one per value
   below [sub] = 8, then [sub] equal buckets per power of two, so from
   [2^e] (e >= 3) on the buckets are [2^(e-3)] wide.  A bucket then
   starts at least 8 of its widths above 0, and reading a quantile as
   the largest value of its bucket over-reports by under 1/8.  The last
   bucket starts at [2^overflow_exp] us (~6.4 days), far past any request
   budget, and holds everything above. *)
let sub_bits = 3
let sub = 1 lsl sub_bits
let overflow_exp = 39
let bucket_base e = sub * (e - sub_bits + 1)
let buckets = bucket_base overflow_exp + 1

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

(* The counter declaration: each counter beside the stats field it
   reports as.  A counter's slot in [counts] is its index here. *)
let counters =
  [|
    (Accepted, "accepted");
    (Served, "served");
    (Rejected, "rejected");
    (Timed_out, "timed_out");
    (Failed, "failed");
    (Malformed, "malformed");
    (Batches, "batches");
    (Max_batch, "max_batch");
    (Collapsed, "collapsed");
    (Shed, "shed");
    (Brownouts, "brownouts");
    (Hangups, "hangups");
    (Warm_hits, "warm_hits");
    (Store_hits, "store_hits");
    (Store_misses, "store_misses");
    (Store_demoted, "store_demoted");
    (Inflight, "inflight");
  |]

let slot c =
  let rec find i = if fst counters.(i) = c then i else find (i + 1) in
  find 0

type t = {
  counts : int Atomic.t array;
  histogram : int Atomic.t array;
  max_us : int Atomic.t;
  started : float;  (* monotonic (Clock.now), not wall time *)
}

let create () =
  {
    counts = Array.map (fun _ -> Atomic.make 0) counters;
    histogram = Array.init buckets (fun _ -> Atomic.make 0);
    max_us = Atomic.make 0;
    started = Parallel.Clock.now ();
  }

let cell t c = t.counts.(slot c)
let incr t c = Atomic.incr (cell t c)
let decr t c = Atomic.decr (cell t c)

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v <= cur then ()
  else if Atomic.compare_and_set cell cur v then ()
  else atomic_max cell v

let note_evaluation t ~answered =
  incr t Batches;
  atomic_max (cell t Max_batch) answered

let bucket_of_us us =
  if us < sub then us
  else
    let rec msb v e = if v = 1 then e else msb (v lsr 1) (e + 1) in
    let e = msb us 0 in
    if e >= overflow_exp then buckets - 1
    else bucket_base e + (us lsr (e - sub_bits)) - sub

let observe_latency t seconds =
  let us = int_of_float (Float.max 0. (seconds *. 1e6)) in
  Atomic.incr t.histogram.(bucket_of_us us);
  atomic_max t.max_us us

(* The last bucket is an overflow bucket: it holds everything at or
   past the last finite boundary, so it has no meaningful upper bound.
   Quantiles landing there saturate at this value (read: ">= 2^39 us")
   instead of fabricating an upper bound no observation ever had. *)
let max_tracked_us = 1 lsl overflow_exp

(* The largest value bucket [i] holds: [i] itself below [sub], else
   the last microsecond before the next bucket's start. *)
let largest_us i =
  if i < sub then i
  else
    let e = (i / sub) + sub_bits - 1 in
    (((i mod sub) + sub + 1) lsl (e - sub_bits)) - 1

(* Largest value of the bucket holding the q-th observation; 0 on an
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
          if i >= buckets - 1 then max_tracked_us else largest_us i
        else go (i + 1) seen
    in
    go 0 0

let snapshot ?store t ~queue_depth =
  let counts = Array.map Atomic.get t.histogram in
  let total = Array.fold_left ( + ) 0 counts in
  let cache = Dls.Lp_model.cache_stats () in
  let durable =
    Option.value store
      ~default:{ Store.hits = 0; misses = 0; appended = 0; compactions = 0 }
  in
  (* The stats fields kept outside [counts]: process-wide LP-cache
     counters, the store's own counters, the queue depth and the latency
     histogram.  No serving path re-solves from a cached
     neighbour any more, so the three repair fields are always 0; they
     stay on the wire so the stats line keeps its 30 fields. *)
  let sampled =
    [
      ("cache_hits", cache.Parallel.Lru.hits);
      ("cache_misses", cache.Parallel.Lru.misses);
      ("repair_probes", 0);
      ("repair_wins", 0);
      ("repair_pivots", 0);
      ("journal_appended", durable.Store.appended);
      ("compactions", durable.Store.compactions);
      ("queue_depth", queue_depth);
      ("p50_us", quantile counts total 0.50);
      ("p90_us", quantile counts total 0.90);
      ("p99_us", quantile counts total 0.99);
      ("max_us", Atomic.get t.max_us);
    ]
  in
  let readings =
    Array.to_list
      (Array.mapi (fun i (_, name) -> (name, Atomic.get t.counts.(i))) counters)
    @ sampled
  in
  let uptime_s = Parallel.Clock.elapsed_s ~since:t.started in
  Protocol.stats_of
    ~count:(fun name -> List.assoc name readings)
    ~seconds:(fun name -> List.assoc name [ ("uptime_s", uptime_s) ])
