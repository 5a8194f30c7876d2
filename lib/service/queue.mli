(** Bounded multi-producer/multi-consumer queue — one shard of the
    admission buffer between connection threads and the dispatchers
    ({!Shards}).

    The bound is the backpressure mechanism: {!try_push} never blocks,
    it reports [Overloaded] when the queue is full so the caller can
    answer the client immediately instead of queueing unbounded work.
    Neither end blocks: {!Shards} owns the wake-up signal its
    dispatchers wait on. *)

type 'a t

type push_result = Enqueued | Overloaded | Closed

(** [create ~capacity] builds an empty queue admitting at most
    [capacity] items ([capacity >= 1]).
    @raise Invalid_argument on a non-positive capacity. *)
val create : capacity:int -> 'a t

(** [try_push q x] enqueues [x] unless the queue is full ([Overloaded])
    or closed ([Closed]).  Never blocks. *)
val try_push : 'a t -> 'a -> push_result

(** [try_pop q] dequeues an item if one is immediately available. *)
val try_pop : 'a t -> 'a option

(** [close q] rejects all further pushes; {!try_pop} still drains the
    remaining items.  Idempotent. *)
val close : 'a t -> unit

val length : 'a t -> int
val capacity : 'a t -> int
