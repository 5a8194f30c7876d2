(** Cheap analytic bounds on the optimal one-port throughput — no LP
    required.

    Useful as sanity envelopes around solver output and as first-cut
    estimates on very large platforms:

    - {e port bound}: every processed unit crosses the master's port
      twice (data + results), so [rho <= 1 / min_i (c_i + d_i)];
    - {e chain bound}: worker [i]'s own chain occupies
      [alpha_i (c_i + w_i + d_i) <= 1], so
      [rho <= Σ 1/(c_i + w_i + d_i)];
    - {e single-worker lower bound}: serving only the best worker
      achieves [max_i 1/(c_i + w_i + d_i)].

    The test suite checks [lower <= rho_opt <= upper] exactly on random
    platforms. *)

module Q = Numeric.Rational

(** [chain_bound p] is [Σ 1/(c_i + w_i + d_i)]. *)
val chain_bound : Platform.t -> Q.t

(** [upper p] is the tighter of the two upper bounds. *)
val upper : Platform.t -> Q.t

(** [lower p] is the best single-worker throughput. *)
val lower : Platform.t -> Q.t

(** [scenario_bound ?model s] is a cheap exact upper bound on the LP
    optimum of scenario [s] — no simplex run.  Every LP row together
    with the chain caps [α_i <= 1/(c_i + w_i + d_i)] is a fractional
    knapsack; the bound is the minimum over rows (plus the one-port row
    unless [model] is [Two_port]).  Used by [Brute] to skip LPs that
    cannot beat the incumbent. *)
val scenario_bound : ?model:Lp_model.model -> Scenario.t -> Q.t

(** [scenario_bound_float ?model s] is the floating-point mirror of
    {!scenario_bound}, for use as a pre-screen: compute the exact bound
    (the only one allowed to make a pruning decision) only when this one
    says pruning is plausible.  Not a certified bound — callers must
    confirm with {!scenario_bound} before skipping anything. *)
val scenario_bound_float : ?model:Lp_model.model -> Scenario.t -> float

(** [prefix_bound ?model ~discipline platform ~prefix ~remaining] bounds
    the throughput of {e every} completion of the ordered send [prefix]
    by the [remaining] workers: exact rows for the prefix, optimistic
    rows for the unplaced, same knapsack relaxation as
    {!scenario_bound}.  [`Fifo]/[`Lifo] fix [sigma2] to the
    corresponding permutation of [sigma1]; [`Free] assumes nothing about
    the return order (only each worker's own return is counted).  The
    result always dominates the LP relaxation bound of
    [Search.bound_problem] on the same node, so using it as a pre-filter
    never changes which nodes get pruned. *)
val prefix_bound :
  ?model:Lp_model.model ->
  discipline:[ `Fifo | `Lifo | `Free ] ->
  Platform.t ->
  prefix:int array ->
  remaining:int array ->
  Q.t
