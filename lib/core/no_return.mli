(** Baseline: classical divisible-load scheduling {e without} return
    messages.

    These are the results the paper builds on (its Section 1):

    - on a {e bus} network, the landmark closed form of Bataineh,
      Hsiung, Robertazzi [5] / the DLT book [10]: all workers
      participate, they never idle, they finish simultaneously, and the
      ordering does not matter;
    - on a {e star} network, Beaumont, Casanova, Legrand, Robert, Yang
      [6]: same structure, and the optimal ordering serves workers by
      {e non-decreasing} [c_i] — independent of their compute speeds.

    The loads follow the classical recursion
    [alpha_1 = 1/(c_1 + w_1)], [alpha_{i+1} = alpha_i w_i / (c_{i+1} + w_{i+1})].

    With [d_i = 0] the general scenario LP of this library degenerates
    to exactly this problem, which the test suite exploits: the closed
    form below equals the LP optimum, exactly, and brute force confirms
    the bandwidth-first ordering.  Contrast with the paper's main
    subject: adding return messages breaks every one of these structural
    properties (participation, ordering-by-bandwidth alone). *)

module Q = Numeric.Rational

(** [optimal_order p] is the bandwidth-first order (non-decreasing [c],
    stable).  The [d] components of [p] are ignored. *)
val optimal_order : Platform.t -> int array

(** [loads p ~order] is the closed-form load vector (platform indexing)
    when serving all workers in [order] with no return messages. *)
val loads : Platform.t -> order:int array -> Q.t array

(** [throughput p] is the optimal no-return throughput of the star
    platform [p] (bandwidth-first order, closed form). *)
val throughput : Platform.t -> Q.t

(** [strip_returns p] is the platform with every [d] forced to zero —
    the form under which the scenario LP reproduces this module's
    closed forms. *)
val strip_returns : Platform.t -> Platform.t
