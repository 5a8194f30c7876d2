(* Classic Hashtbl + doubly-linked recency list.  [head] is the
   most-recently-used end, [tail] the eviction end.

   Concurrency: every structural access runs under [m]; [compute]
   callbacks run outside it.  [find_or_compute] is single-flight:
   concurrent misses on the same key collapse into one callback run,
   the others block on [flight_done] and pick up the cached value. *)

type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

(* One in-flight compute.  The computer pins its result here, under the
   lock, before waking the joiners: a burst of inserts can evict the
   freshly cached entry between the broadcast and a joiner's wake-up,
   and the pin guarantees the joiner still receives the flight's value
   instead of silently recomputing.  [outcome] stays [None] when the
   compute raised — woken joiners then re-classify (one becomes the new
   computer). *)
type 'v flight = { mutable outcome : 'v option }

type ('k, 'v) t = {
  m : Mutex.t;
  flight_done : Condition.t;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  inflight : ('k, 'v flight) Hashtbl.t;
  cap : int;
  on_evict : ('k -> 'v -> unit) option;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable joins : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  joins : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ?(capacity = 1024) ?on_evict () =
  {
    m = Mutex.create ();
    flight_done = Condition.create ();
    table = Hashtbl.create (max 16 (min capacity 4096));
    inflight = Hashtbl.create 16;
    cap = capacity;
    on_evict;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    joins = 0;
    evictions = 0;
  }

(* List surgery below runs with [t.m] held. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  if t.head != Some n then begin
    unlink t n;
    push_front t n
  end

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.evictions <- t.evictions + 1;
      (* Runs with [t.m] held — the callback must not touch this
         cache (see the .mli contract). *)
      (match t.on_evict with Some f -> f n.key n.value | None -> ())

(* Recency bump without counter movement — the single-flight path does
   its own hit/miss/join accounting. *)
let peek_locked t k =
  match Hashtbl.find_opt t.table k with
  | Some n ->
      touch t n;
      Some n.value
  | None -> None

let find_locked t k =
  match peek_locked t k with
  | Some v ->
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let add_locked t k v =
  if t.cap > 0 then begin
    (match Hashtbl.find_opt t.table k with
    | Some n ->
        unlink t n;
        Hashtbl.remove t.table k
    | None -> ());
    if Hashtbl.length t.table >= t.cap then evict_lru t;
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    push_front t n
  end

let with_lock t f =
  Mutex.lock t.m;
  match f () with
  | x ->
      Mutex.unlock t.m;
      x
  | exception e ->
      Mutex.unlock t.m;
      raise e

let find t k = with_lock t (fun () -> find_locked t k)
let add t k v = with_lock t (fun () -> add_locked t k v)

(* Single-flight: classify under the lock — cached (hit), someone is
   computing it (join: wait for the flight and pick its pinned value
   up), or truly absent (miss: become the computer).  A joiner whose
   flight landed without a value (failed compute) loops and
   re-classifies, so progress is guaranteed: every round either returns
   or starts a compute, and computes terminate.  Eviction pressure
   cannot starve a joiner: the flight record pins the computed value
   independently of the cache table. *)
let find_or_compute t k compute =
  let run_compute fl =
    match compute () with
    | v ->
        Mutex.lock t.m;
        let canonical =
          match Hashtbl.find_opt t.table k with
          | Some n ->
              (* can only happen via a concurrent [add]; keep it canonical *)
              touch t n;
              n.value
          | None ->
              add_locked t k v;
              v
        in
        fl.outcome <- Some canonical;
        Hashtbl.remove t.inflight k;
        Condition.broadcast t.flight_done;
        Mutex.unlock t.m;
        canonical
    | exception e ->
        Mutex.lock t.m;
        Hashtbl.remove t.inflight k;
        Condition.broadcast t.flight_done;
        Mutex.unlock t.m;
        raise e
  in
  let flight_of k =
    match Hashtbl.find_opt t.inflight k with
    | Some fl -> fl
    | None -> assert false
  in
  let rec classify () =
    match peek_locked t k with
    | Some v ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.m;
        v
    | None ->
        if Hashtbl.mem t.inflight k then begin
          t.joins <- t.joins + 1;
          let fl = flight_of k in
          while
            fl.outcome = None
            &&
            match Hashtbl.find_opt t.inflight k with
            | Some cur -> cur == fl
            | None -> false
          do
            Condition.wait t.flight_done t.m
          done;
          match fl.outcome with
          | Some v ->
              (* The pinned value survives even if the entry was already
                 evicted by an insert burst; refresh recency when it is
                 still cached. *)
              (match Hashtbl.find_opt t.table k with
              | Some n -> touch t n
              | None -> ());
              Mutex.unlock t.m;
              v
          | None -> classify ()
        end
        else begin
          t.misses <- t.misses + 1;
          let fl = { outcome = None } in
          Hashtbl.replace t.inflight k fl;
          Mutex.unlock t.m;
          run_compute fl
        end
  in
  Mutex.lock t.m;
  classify ()

let mem t k = with_lock t (fun () -> Hashtbl.mem t.table k)
let length t = with_lock t (fun () -> Hashtbl.length t.table)
let capacity t = t.cap

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        joins = t.joins;
        evictions = t.evictions;
        size = Hashtbl.length t.table;
        capacity = t.cap;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      t.hits <- 0;
      t.misses <- 0;
      t.joins <- 0;
      t.evictions <- 0)
