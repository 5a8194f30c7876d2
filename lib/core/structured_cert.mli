(** Structured certificate for FIFO and LIFO LP(2) bases (Theorems 1
    and 2 of the paper, as an O(p) optimality proof), and the normal
    form of an optimal face.

    Theorem 1: in an optimal FIFO schedule every enrolled worker is busy
    until the horizon except possibly the last.  So the deadline rows of
    the enrolled workers bind — all of them, or all but the last when
    the one-port row binds — and subtracting consecutive binding rows
    leaves a bidiagonal system (the recurrence behind Theorem 2's
    [u_i]).  The same holds for LIFO with its own recurrence.

    [certify] reads a candidate basis of {!Lp_model.problem} for a
    single-scenario FIFO ([sigma2 = sigma1]) or LIFO
    ([sigma2 = reverse sigma1]) LP, derives its vertex and its duals by
    forward and back substitution, and tests, in exact arithmetic,
    that
    - every deadline row is at most 1, every binding one exactly 1, and
      the one-port row likewise;
    - every enrolled load is non-negative (zero at a degenerate vertex);
    - every binding row's dual, and a binding one-port row's dual, is
      non-negative;
    - every enrolled [alpha_j] prices to zero reduced cost and every
      other [alpha_j] to a non-positive one.

    That is a primal-dual pair, so the basis is optimal.  [certify]
    accepts it only when no dual of a binding row and no reduced cost
    off the enrolled loads is zero: complementarity is then strict off
    the idle/slack twins, and the optimum is unique in [rho] and
    [alpha], the vertex the exact simplex reaches.  On alternate optima
    {!normal_form} picks the canonical point.

    A float run of the same recurrences screens the basis first, so a
    hopeless basis costs no exact arithmetic: it applies
    [certify_basis]'s [1e-7] margin to the primal tests, but on the
    dual tests it rules out only a clearly negative value, leaving
    duals too small for doubles to resolve, zero included, to the
    exact test.

    The arithmetic is fraction-free.  Each worker's column is scaled to
    integers (by the lcm of its denominators); the loads are integer
    numerators over one denominator, built from prefix and suffix
    products of the chain's link factors, and so are the duals.  Every
    test compares signs by cross-multiplication, and the one division
    per value (a gcd) happens when the certified answer is packaged.
    Everything is O(p) integer operations, against the O(m^3)
    elimination of {!Simplex.Solver.certify_basis}. *)

type outcome =
  | Certified of {
      solution : Simplex.Solver.solution;
          (** the unique optimum, with [pivots = 0] and the candidate
              basis; [point] is the basis's vertex (a basic idle
              variable carries its row's gap) *)
      gaps : Numeric.Rational.t array;
          (** [1 -] each deadline row without its idle variable, in
              sigma1 order: a loaded worker's [idle] in
              {!Lp_model.solved} *)
    }
  | Rejected
      (** the basis has the chain shape but is not the unique optimum:
          infeasible, suboptimal, or on alternate optima.  The generic
          certificate runs the same tests, so asking it too would only
          cost time *)
  | Shape
      (** not a chain basis (another permutation pair or another basis
          layout): no verdict, ask {!Simplex.Solver.certify_basis} *)

(** [certify ~one_port scenario ~basis] runs the test above on [basis],
    a basis of [Lp_model.problem] for [scenario] ([one_port] selects the
    model: the one-port row is the last row when present).  It is
    [read], then [screen], then [exact]. *)
val certify : one_port:bool -> Scenario.t -> basis:int array -> outcome

(** [normal_form ~one_port scenario] is Theorem 1's normal form of the
    optimal schedules: the lexicographic maximum of [alpha] in sigma1
    order over them, where one chain of binding rows read from the
    scenario alone proves to be that maximum; [None] elsewhere.  It is
    that chain's vertex, as a [Certified] answer would give it ([value
    = rho], the chain's own basis, [pivots = 0]), computed in O(p) on
    the chain's integer arithmetic.  A chain counts only when it passes
    the exact test above with the non-strict dual signs ([y >= 0],
    reduced costs [<= 0]: an optimal basis, so its vertex is optimal)
    and the conditions below.
    - LIFO: every worker loaded to its deadline.  A LIFO deadline row
      holds only the loads up to its own worker, so among optimal
      schedules that agree before some worker, that worker's row bounds
      its load by exactly this value.
    - FIFO under one-port, with one return ratio [z]: workers [first ..
      m - 1] in sigma1 order loaded to their deadlines and [m] closing
      the one-port row, the others idle; the one-port dual is positive
      and every worker before [first] prices strictly above its
      objective.  The dual makes the one-port row bind at every optimum,
      so every optimum sends [C = 1/(1+z)] and returns [D = z/(1+z)], a
      row bounds its load by a function of the earlier loads, and the
      port's rest [C - sum c alpha] bounds the load of [m] and idles the
      later workers; the prices idle the workers before [first].  A
      float walk of those bounds picks [m] for each [first].
    Either way, an optimal schedule that agrees with the point before
    some position has at most its load there, so the point is the
    lexicographic maximum.  Outside these shapes (two-port FIFO, several
    return ratios, an optimum that idles a worker inside the chain) the
    exact simplex's vertex stays the answer. *)
val normal_form :
  one_port:bool -> Scenario.t -> (Simplex.Solver.solution * Numeric.Rational.t array) option

(** {2 The layers of [certify]}

    Exposed so that a reference implementation of the exact test can be
    held to this one on the same chains. *)

(** A basis read as a chain, in sigma1 positions: [enrolled] workers
    have their load basic; [tight] rows bind (neither twin basic);
    [binding] is the last enrolled worker when the one-port row binds. *)
type chain = private {
  fifo : bool;
  one_port : bool;
  enrolled : bool array;
  tight : bool array;
  binding : int option;
}

(** [read ~one_port scenario ~basis] is the chain [basis] forms, or
    [None] when it has another shape ({!Shape}). *)
val read : one_port:bool -> Scenario.t -> basis:int array -> chain option

(** [screen chain scenario] is the float run: [false] rules the basis
    out. *)
val screen : chain -> Scenario.t -> bool

(** [exact chain scenario ~basis] is the exact test, unscreened: it
    returns [Certified] or [Rejected]. *)
val exact : chain -> Scenario.t -> basis:int array -> outcome
