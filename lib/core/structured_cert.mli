(** Structured certificate for FIFO and LIFO LP(2) bases (Theorems 1
    and 2 of the paper, as an O(p) optimality proof).

    Theorem 1: in an optimal FIFO schedule every enrolled worker is busy
    until the horizon except possibly the last.  So the deadline rows of
    the enrolled workers bind — all of them, or all but the last when
    the one-port row binds — and subtracting consecutive binding rows
    leaves a bidiagonal system (the recurrence behind Theorem 2's
    [u_i]).  The same holds for LIFO with its own recurrence.

    [certify] reads a candidate basis of {!Lp_model.problem} for a
    single-scenario FIFO ([sigma2 = sigma1]) or LIFO
    ([sigma2 = reverse sigma1]) LP, derives its vertex and its duals by
    forward and back substitution, and accepts only when, in exact
    arithmetic,
    - every deadline row is at most 1, every binding one exactly 1, and
      the one-port row likewise;
    - every enrolled load is non-negative (zero at a degenerate
      vertex, which the strict dual test below still pins down);
    - every binding row's dual, and a binding one-port row's dual, is
      positive;
    - every enrolled [alpha_j] prices to zero reduced cost and every
      other [alpha_j] to a strictly negative one.

    That is a primal-dual pair with strict complementarity off the
    idle/slack twins, so the optimum is unique in [rho] and [alpha]: the
    vertex the exact simplex reaches.  A float run of the same
    recurrences screens the basis first, so a hopeless basis costs no
    exact arithmetic: it applies [certify_basis]'s [1e-7] margin to the
    primal tests, but on the strict dual tests it rules out only an
    exact zero (the float image of an alternate optimum) or a clearly
    negative value, leaving duals too small for doubles to resolve to
    the exact test.

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
          certificate runs the same tests behind a stricter float
          screen, so asking it too would only cost time *)
  | Shape
      (** not a chain basis (another permutation pair or another basis
          layout): no verdict, ask {!Simplex.Solver.certify_basis} *)

(** [certify ~one_port scenario ~basis] runs the test above on [basis],
    a basis of [Lp_model.problem] for [scenario] ([one_port] selects the
    model: the one-port row is the last row when present).  It is
    [read], then [screen], then [exact]. *)
val certify : one_port:bool -> Scenario.t -> basis:int array -> outcome

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
