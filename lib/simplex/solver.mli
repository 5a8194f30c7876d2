(** Exact two-phase primal simplex.

    Pivoting uses Bland's smallest-index rule, which guarantees
    termination even on degenerate problems (the scheduling LPs of the
    paper are routinely degenerate: several workers finish
    simultaneously).  Because the arithmetic is exact, the returned
    optimum is a true vertex of the feasible polyhedron — the structural
    arguments of the paper (Lemma 1: "at most one constraint slack")
    apply to it literally.

    The tableau is fraction-free: big integers over the basis
    determinant (Edmonds; Bareiss) instead of reduced rationals, so a
    pivot takes two products and one exact division per entry and no
    gcd.  Columns and rows are positively rescaled to integers at
    set-up, which changes none of Bland's choices: the pivot path, hence
    [value], [point], [basis] and [pivots], is the one a rational
    Gauss-Jordan tableau takes on the same problem.  The test suite
    keeps that rational tableau ({!Solver_core.Make} over
    {!Field.Rational}) as the reference. *)

module Q = Numeric.Rational

type solution = {
  value : Q.t;  (** optimal objective value, in the problem's direction *)
  point : Q.t array;  (** one optimal assignment of the decision variables *)
  pivots : int;  (** number of simplex pivots performed (both phases) *)
  basis : int array;
      (** terminal basis: for each constraint row, the column index of
          its basic variable.  Columns are numbered original variables
          first, then slacks, then artificials. *)
}

type outcome = Optimal of solution | Unbounded | Infeasible

(** The two ways a linear program can fail to have an optimum.  (The
    [Error_] prefix keeps the constructors from clashing with
    {!outcome}'s.) *)
type error = Error_unbounded | Error_infeasible

(** Raised by {!solve_exn}; carries the typed failure instead of a
    [Failure] string. *)
exception Error of error

(** [solve p] solves the linear program exactly. *)
val solve : Problem.t -> outcome

(** [certify_basis p ~basis] checks whether [basis] is the {e unique}
    optimal basis of [p] using a single exact factorization restricted
    to the basis columns — two [m x m] fraction-free integer
    eliminations (Montante/Bareiss) and a pricing pass — instead of
    tableau pivoting.  [Some sol] is returned only when, in exact
    arithmetic, the basis is primal feasible and every non-basic column
    has a strictly negative reduced cost — tolerating a reduced cost of
    exactly zero only on a column that duplicates (coefficients and zero
    objective) a basic column, since the exchange it permits moves
    weight strictly within the duplicate pair.  [sol] is then optimal
    and bit-identical to {!solve}'s answer in the value and in every
    point coordinate outside such pairs (in particular in every
    coordinate with a non-zero objective), with [pivots = 0].

    [None] means "no certificate", never "no optimum": the basis may be
    wrong, the optimum non-unique, or the problem shape unsupported
    (only all-[<=] programs with non-negative right-hand sides are
    handled).  Callers must fall back to {!solve}.  A cheap float screen rejects
    hopeless bases before any exact arithmetic is spent. *)
val certify_basis : Problem.t -> basis:int array -> solution option

(** [solve_result p] is {!solve} in [result] form. *)
val solve_result : Problem.t -> (solution, error) result

(** [solve_exn p] extracts the optimal solution.
    @raise Error when the problem is unbounded or infeasible. *)
val solve_exn : Problem.t -> solution

val pp_outcome : Format.formatter -> outcome -> unit
