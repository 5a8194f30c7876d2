(** Independent validation of LP solutions.

    The checker re-evaluates every constraint with exact arithmetic, so a
    bug in the tableau machinery cannot silently corrupt a schedule: the
    scheduling layer validates each solved program before trusting it.

    The evaluation is fraction-free: the point is brought to one common
    denominator, and each row is an integer dot product of the row over
    its own common denominator with the point's numerators, compared
    with the right-hand side by cross-multiplication.  Rational values
    are formed only to describe a violation, so the verdicts and
    messages are those of evaluating every row on reduced rationals. *)

module Q = Numeric.Rational

(** [is_feasible p x] holds when [x] satisfies every constraint of [p],
    non-negativity included. *)
val is_feasible : Problem.t -> Q.t array -> bool

(** [check p s] validates a solver result against problem [p]:
    feasibility of the point and agreement of the claimed objective
    value. Returns [Error messages] on any discrepancy. *)
val check : Problem.t -> Solver.solution -> (unit, string list) result
