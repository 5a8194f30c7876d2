(** Consistent-hash ring: canonical request keys → shard indices.

    The router's placement function.  Every shard contributes [vnodes]
    virtual points to a circle of 64-bit hashes; a key is owned by the
    first shard point at or clockwise-after the key's hash.  Virtual
    nodes smooth the load (each shard's arc is the union of [vnodes]
    independent slices), and the clockwise-successor rule gives the two
    properties the scale-out design leans on:

    - {b affinity}: equal keys always land on the same shard, so the
      shard-local single-flight collapse and LRU keep full effect
      behind the router — duplicates meet in one process;
    - {b minimal remap}: removing a shard moves {e only} the keys that
      shard owned (its arcs fall to their clockwise successors); every
      other key keeps its shard.  Adding one is symmetric.

    Hashing is FNV-1a (64-bit) with a splitmix64 avalanche finalizer,
    implemented here rather than via [Hashtbl.hash] so the placement is
    a pure function of the byte strings involved — identical in every
    process, on every run, with no string-prefix truncation.  The
    finalizer matters: raw FNV-1a leaves labels differing only in their
    last characters (vnode labels do) clustered on the circle.  Router
    and tests may differ in process, architecture word size is 64-bit
    everywhere we build. *)

type t

(** [create ~vnodes names] builds the ring over the shards [names]
    (index [i] of the result refers to [names.(i)]).  [vnodes] points
    per shard; [vnodes <= 0] or an empty [names] is rejected with
    [Invalid_argument].  Shard names should be stable identities (the
    rendered backend address): equal name sets give bit-identical
    rings in every process. *)
val create : vnodes:int -> string array -> t

(** [lookup t key] is the index of the shard owning [key]. *)
val lookup : t -> string -> int

(** [route t key] is every shard index in ring order starting at the
    owner — the failover order: if the owner is unreachable, the next
    distinct shard clockwise is the one that would own the key were the
    owner removed, so retrying down this list follows exactly the
    minimal-remap placement. *)
val route : t -> string -> int list

(** [remove t i] is the ring without shard [i]'s points; the surviving
    shards keep their original indices {e and} their original points,
    which is what makes the remap minimal.  [Invalid_argument] when
    removing the last shard. *)
val remove : t -> int -> t

(** Number of shards with points on the ring. *)
val shards : t -> int

val vnodes : t -> int

(** The 64-bit hash the ring places with (FNV-1a, splitmix64-mixed) —
    exposed so tests can pin golden values (cross-process determinism
    is a stated property, and a pinned constant is the cheapest
    proof). *)
val hash : string -> int64
