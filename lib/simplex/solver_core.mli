(** The simplex algorithm, generic over the scalar {!Field.S}.

    {!Solver} instantiates it with exact rationals (and re-exports a
    rational-typed API — use that one by default); {!Float_solver} with
    IEEE doubles.  The algorithm is the classical two-phase primal
    simplex with Bland's smallest-index rule; with exact arithmetic
    Bland's rule guarantees termination, with floats an iteration cap
    backstops tolerance-induced cycling. *)

module Make (F : Field.S) : sig
  type solution = {
    value : F.t;
    point : F.t array;
    pivots : int;
    basis : int array;
        (** the terminal basis: for each constraint row, the column index
            of its basic variable.  Columns are numbered original
            variables first, then slacks, then artificials.  Feed it to
            {!solve_with_basis} (of the exact instantiation) to certify
            or warm-start another solve of a structurally identical
            problem. *)
  }

  type outcome =
    | Optimal of solution
    | Unbounded
    | Infeasible
    | Stalled
        (** the pivot cap was reached — only reachable with inexact
            arithmetic *)

  (** Outcome of a warm-started solve (see {!solve_with_basis}). *)
  type warm_outcome =
    | Warm_optimal of solution * bool
        (** the flag is [true] when every allowed non-basic column had a
            {e strictly} negative reduced cost at termination: the
            optimal point is then provably unique, so the solution is
            bit-identical to what {!solve} returns.  [false] means
            alternate optima may exist and the caller must fall back to
            the canonical cold solve if it needs a deterministic
            answer. *)
    | Warm_unbounded
    | Warm_rejected
        (** the candidate basis was unusable: wrong length, out-of-range
            or duplicate columns, artificial columns, linearly dependent
            columns, or a primally infeasible basic point *)
    | Warm_stalled  (** the pivot cap was reached *)

  (** [solve ?max_pivots p] solves the (rational-typed) problem with
      this field's arithmetic. Default cap: 100000 pivots. *)
  val solve : ?max_pivots:int -> Problem.t -> outcome

  (** [solve_with_basis ?max_pivots p ~basis] starts the simplex from the
      given basis instead of from scratch: the basis columns are brought
      in with plain Gauss-Jordan pivots (a single factorization restricted
      to the candidate basis — no phase 1), primal feasibility is checked
      in this field's arithmetic, and Bland's rule then runs to
      termination.  Intended uses, with the exact instantiation:

      - {e basis lifting}: pass the terminal basis of a float solve; if
        the float solver ended on the true optimal basis, zero additional
        pivots are needed and the exact check certifies it;
      - {e warm starts}: pass the optimal basis of a neighbouring problem
        (consecutive enumeration permutations differ by a transposition),
        so Bland's rule starts near the optimum.

      Any defect in the candidate basis yields [Warm_rejected] — never a
      wrong answer — and the caller falls back to {!solve}. *)
  val solve_with_basis :
    ?max_pivots:int -> Problem.t -> basis:int array -> warm_outcome
end
