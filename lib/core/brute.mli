(** Exhaustive search over message orderings.

    The complexity of the general problem (free permutation pair) is
    open — the paper conjectures NP-hardness.  For small platforms we
    can brute-force it: every ordering of the full worker set is tried
    (subsets are covered automatically, since the LP may assign zero
    load), for FIFO, LIFO, or arbitrary [(sigma1, sigma2)] pairs.  Used
    by the test suite to verify Theorem 1 and by the ablation experiments
    to measure how far FIFO/LIFO sit from the best-known schedule.

    The enumeration is a branch-and-bound: each candidate is first
    measured against the incumbent with the exact knapsack bound of
    {!Bounds.scenario_bound} (for [best_general], whole [sigma1] blocks
    are measured with {!Bounds.prefix_bound}), LPs that cannot win are
    skipped, and the surviving solves run through the certified fast
    pipeline ([Solve.solve ~mode:`Cached] when [fast], threading the
    previous optimal basis as a warm start; [`Exact] otherwise).
    [~fast:false ~prune:false] is the plain exact scan (the reference the
    tests compare against).

    There is one search loop for every [?jobs] (default 1): blocks of
    the enumeration run on a domain pool ({!Parallel.Pool.run_local})
    against one shared {!Incumbent} ordered by enumeration position, so
    a candidate tied with an earlier incumbent is pruned on every
    domain.  The answer is the first maximizer in enumeration order,
    {e bit-identical} to the unpruned exhaustive scan and the same for
    every [jobs]; with [jobs = 1] every pruning decision and LP solve is
    the sequential scan's. *)

module Q = Numeric.Rational

(** [permutations_seq n] enumerates all permutations of [0..n-1] lazily,
    in the same order {!permutations} lists them; constant live memory. *)
val permutations_seq : int -> int array Seq.t

(** [permutations n] lists all permutations of [0..n-1].  [n! ] entries:
    keep [n] small (thin eager wrapper over {!permutations_seq}). *)
val permutations : int -> int array list

(** [best_fifo ?model ?jobs ?fast ?prune platform] is the optimum over
    all FIFO scenarios ([fast] and [prune] default [true]; disabling
    both gives the plain exact scan, bit-identical results either
    way). *)
val best_fifo :
  ?model:Lp_model.model ->
  ?jobs:int ->
  ?fast:bool ->
  ?prune:bool ->
  Platform.t ->
  Lp_model.solved

(** [best_lifo ?model ?jobs ?fast ?prune platform] is the optimum over
    all LIFO scenarios. *)
val best_lifo :
  ?model:Lp_model.model ->
  ?jobs:int ->
  ?fast:bool ->
  ?prune:bool ->
  Platform.t ->
  Lp_model.solved

(** [best_general ?model ?jobs ?fast ?prune platform] is the optimum
    over all [(sigma1, sigma2)] pairs — [ (n!)² ] LPs before pruning. *)
val best_general :
  ?model:Lp_model.model ->
  ?jobs:int ->
  ?fast:bool ->
  ?prune:bool ->
  Platform.t ->
  Lp_model.solved
