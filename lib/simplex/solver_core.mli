(** The simplex algorithm on a dense Gauss-Jordan tableau, generic over
    the scalar {!Field.S}.

    {!Float_solver} instantiates it with IEEE doubles.  Over
    {!Field.Rational} it is the rational reference the test suite holds
    {!Solver} to: the exact solver runs the same pivots on a
    fraction-free integer tableau.  The algorithm is the classical
    two-phase primal simplex with Bland's smallest-index rule; with
    exact arithmetic Bland's rule guarantees termination, with floats an
    iteration cap backstops tolerance-induced cycling. *)

module Make (F : Field.S) : sig
  type solution = {
    value : F.t;
    point : F.t array;
    pivots : int;
    basis : int array;
        (** the terminal basis: for each constraint row, the column index
            of its basic variable.  Columns are numbered original
            variables first, then slacks, then artificials. *)
  }

  type outcome =
    | Optimal of solution
    | Unbounded
    | Infeasible
    | Stalled
        (** the pivot cap was reached — only reachable with inexact
            arithmetic *)

  (** [solve ?max_pivots p] solves the (rational-typed) problem with
      this field's arithmetic. Default cap: 100000 pivots. *)
  val solve : ?max_pivots:int -> Problem.t -> outcome
end
