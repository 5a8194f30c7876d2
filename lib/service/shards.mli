(** Sharded admission buffer: N bounded queues, one per dispatcher,
    with steal-based rebalancing.

    Each request key is hashed onto a fixed shard ({!shard_of_key}), so
    all duplicates of a request land in the {e same} dispatcher's
    rounds — single-flight collapse and result-cache affinity stay
    shard-local without any cross-dispatcher coordination.  A dispatcher
    whose own shard runs dry steals from the currently longest other
    shard instead of sleeping, so a skewed key distribution cannot
    strand idle dispatchers while one shard backs up.

    Total admission capacity is split evenly across shards; a push is
    [Overloaded] when the {e key's} shard is full, even if other shards
    have room — the bound is per-shard by design, since rebalancing
    happens at the consumer end (stealing), not the producer end.

    {!close} is broadcast-correct: every blocked {!pop} either drains a
    remaining item (its own or stolen) or returns [None] once all shards
    are closed {e and} empty, so no admitted request is dropped and
    every dispatcher terminates. *)

type 'a t

(** [create ~shards ~capacity] builds [shards] queues ([shards >= 1])
    with [max 1 (capacity / shards)] slots each.
    @raise Invalid_argument when [shards < 1] or [capacity < 1]. *)
val create : shards:int -> capacity:int -> 'a t

(** [shard_of_key t key] is the shard this key hashes to — stable for
    the lifetime of [t]. *)
val shard_of_key : 'a t -> string -> int

(** [try_push t ~key x] enqueues [x] on [key]'s shard.  Never blocks;
    [Overloaded] when that shard is full, [Closed] after {!close}. *)
val try_push : 'a t -> key:string -> 'a -> Queue.push_result

(** [pop t ~shard] blocks until an item is available somewhere and
    returns [(item, source)] — [source = shard] for an own-shard pop,
    [source <> shard] for a steal from the longest backlog.  [None]
    once the structure is closed and fully drained. *)
val pop : 'a t -> shard:int -> ('a * int) option

(** [try_pop_from t i] dequeues from shard [i] if an item is
    immediately available — used to extend a dispatch round from the
    shard that produced its first job. *)
val try_pop_from : 'a t -> int -> 'a option

(** [close t] rejects all further pushes and wakes every blocked
    {!pop}; remaining items are still drained.  Idempotent. *)
val close : 'a t -> unit

(** Items currently admitted, across all shards. *)
val length : 'a t -> int

val shard_length : 'a t -> int -> int

(** Total capacity: per-shard capacity times the shard count. *)
val capacity : 'a t -> int
