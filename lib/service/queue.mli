(** Bounded multi-producer/multi-consumer queue: the daemon's admission
    buffer between connection threads and the evaluations that pop it.

    The bound is the backpressure mechanism: {!try_push} never blocks,
    it reports [Overloaded] when the queue is full so the caller can
    answer the client immediately instead of queueing unbounded work.
    The consumer end blocks: an idle evaluator loop sleeps in {!pop}
    until a push or {!close} wakes it. *)

type 'a t

type push_result = Enqueued | Overloaded | Closed

(** [create ~capacity] builds an empty queue admitting at most
    [capacity] items ([capacity >= 1]).
    @raise Invalid_argument on a non-positive capacity. *)
val create : capacity:int -> 'a t

(** [try_push q x] enqueues [x] unless the queue is full ([Overloaded])
    or closed ([Closed]).  Never blocks. *)
val try_push : 'a t -> 'a -> push_result

(** [pop q] blocks until an item is available and dequeues it, oldest
    first; [None] once the queue is closed and drained. *)
val pop : 'a t -> 'a option

(** [close q] rejects all further pushes and wakes every blocked
    {!pop}; the remaining items are still drained.  Idempotent. *)
val close : 'a t -> unit

val length : 'a t -> int
val capacity : 'a t -> int
