(** Branch-and-bound search for the best FIFO sending order.

    Theorem 1 solves the FIFO problem when every worker has the same
    return ratio [d_i / c_i].  Outside that hypothesis (mixed
    applications, asymmetric links) no ordering rule is known, and
    {!Brute.best_fifo} costs [p!] LPs.  This module searches the
    permutation tree with an admissible LP relaxation:

    - a {e prefix} of the order is fixed; its deadline constraints are
      exact (every unplaced worker provably returns after the whole
      prefix under FIFO);
    - each unplaced worker is given its most optimistic completion
      (served immediately after the prefix, returning first among the
      unplaced), which can only overestimate the achievable throughput;
    - the one-port constraint is kept in full.

    A node is pruned when its relaxation bound cannot beat the
    incumbent (seeded with the Theorem 1 order, which is usually
    optimal and makes the search mostly a proof of optimality).  The
    bound test is three-tier: the exact knapsack bound of
    {!Bounds.prefix_bound} first (it dominates the LP bound, so pruning
    on it never changes a decision — it just skips both LP solves), then
    a floating-point simplex, then an exact confirmation only when
    pruning looks possible — so no subtree is ever cut on floating-point
    evidence, but most nodes skip the exact LP.  Leaf solves run through
    the certified fast pipeline ([Solve.solve ~mode:`Cached]), threading
    the previous optimal basis as a warm start.

    After the root check, each root subtree is one task of a domain
    pool ({!Parallel.Pool.run_local}) for every [?jobs] (default 1), and
    all tasks share one {!Incumbent} ordered by DFS leaf position, the
    heuristic seed before every leaf.  The returned {e solution} is the
    heuristic if it attains the optimum, else the first optimal leaf in
    DFS order: bit-identical for every [jobs] value.  With [jobs = 1]
    every decision is the sequential DFS's; with more domains the
    {e statistics} [nodes]/[pruned]/[lps] may vary (and leaf solves may
    be answered by the LP cache). *)

module Q = Numeric.Rational

type stats = {
  nodes : int;  (** search-tree nodes visited *)
  pruned : int;  (** subtrees cut by the bound *)
  lps : int;  (** exact LPs requested (bounds + leaves; cache hits included) *)
}

(** A search result: the optimal solution plus the statistics of the run
    that found it. *)
type outcome = { solved : Lp_model.solved; stats : stats }

(** [best_fifo ?model ?jobs platform] is the exact optimal FIFO solution
    (over all sending orders; participation is still decided by the LP)
    and the search statistics.  [jobs] defaults to [1]. *)
val best_fifo : ?model:Lp_model.model -> ?jobs:int -> Platform.t -> outcome

(** [best_lifo ?model ?jobs platform] is the exact optimal LIFO
    solution.  The relaxation adapts: a LIFO prefix's workers return
    {e last} (after every unplaced worker), so their deadline rows only
    involve the prefix, while each unplaced worker optimistically pays
    the prefix sends, its own chain, and the whole prefix return
    block. *)
val best_lifo : ?model:Lp_model.model -> ?jobs:int -> Platform.t -> outcome
