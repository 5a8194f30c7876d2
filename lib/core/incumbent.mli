(** The incumbent of an exhaustive order search, shared by every domain
    of the search.

    Candidates carry a {e position}: their place in the sequential
    enumeration order.  The incumbent is the best solve published so
    far under one total order, larger throughput first and, at equal
    throughput, earlier position first; it only ever improves.  A
    candidate, or a block of candidates, is pruned when its bound is
    below the incumbent's throughput, or equal to it while the
    incumbent's position comes before the whole block.

    The first maximizer in enumeration order is therefore never pruned:
    its bound is at least the optimum [ρ*], the incumbent's throughput is
    at most [ρ*], and equality would need an earlier maximizer.  So the
    final incumbent is that first maximizer, whatever the number of
    domains and however they interleave.  In a sequential scan every
    incumbent precedes every unvisited candidate, so a tie always
    prunes, as in the classic branch-and-bound. *)

module Q = Numeric.Rational

type 'p t

(** [create ~before] is an empty incumbent.  [before a b] says that the
    candidate at [a] comes before every candidate of the block starting
    at [b] (for a single candidate: [a] comes strictly before [b]). *)
val create : before:('p -> 'p -> bool) -> 'p t

(** [offer t pos sol] publishes [sol], solved at [pos], when it beats
    the incumbent. *)
val offer : 'p t -> 'p -> Lp_model.solved -> unit

(** [solved t] is the incumbent's solve, [None] before the first
    {!offer}. *)
val solved : 'p t -> Lp_model.solved option

(** [prunes t bound ~from] says that a block starting at [from] whose
    throughput is at most [bound] cannot hold the first maximizer. *)
val prunes : 'p t -> Q.t -> from:'p -> bool
