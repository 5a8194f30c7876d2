(** Bounded multi-producer/multi-consumer queue — the admission buffer
    between connection threads and the dispatcher.

    The bound is the backpressure mechanism: {!try_push} never blocks,
    it reports [Overloaded] when the queue is full so the caller can
    answer the client immediately instead of queueing unbounded work.
    Consumers block in {!pop} until an item arrives or the queue is
    {!close}d {e and} drained, which is exactly the dispatcher's
    graceful-shutdown condition. *)

type 'a t

type push_result = Enqueued | Overloaded | Closed

(** [create ~capacity] builds an empty queue admitting at most
    [capacity] items ([capacity >= 1]).
    @raise Invalid_argument on a non-positive capacity. *)
val create : capacity:int -> 'a t

(** [try_push q x] enqueues [x] unless the queue is full ([Overloaded])
    or closed ([Closed]).  Never blocks. *)
val try_push : 'a t -> 'a -> push_result

(** [pop q] blocks until an item is available and dequeues it; [None]
    once the queue is closed and every item has been drained. *)
val pop : 'a t -> 'a option

(** [try_pop q] dequeues an item if one is immediately available. *)
val try_pop : 'a t -> 'a option

(** [close q] rejects all further pushes; blocked and future {!pop}s
    still drain the remaining items, then return [None].  Idempotent. *)
val close : 'a t -> unit

val length : 'a t -> int
val capacity : 'a t -> int
