(** Floating-point simplex: {!Solver_core.Make} over IEEE doubles.

    Several times faster than the exact solver on the scheduling LPs of
    this library, at the price of [1e-9]-tolerance pivoting: use it for
    large-scale throughput {e estimation}
    (dashboards, sweeps), or as the scout of the certified fast path —
    its terminal {!solution.basis} is lifted into the exact solver by
    the [`Fast] solve mode, which accepts the answer only after an exact
    re-derivation.  Keep the exact solver for anything a schedule is
    built from.  Degenerate problems may [Stalled] out of the pivot cap
    instead of terminating. *)

type solution = {
  value : float;
  point : float array;
  pivots : int;
  basis : int array;
      (** terminal basis, the candidate that [Dls.Structured_cert] and
          {!Solver.certify_basis} lift to an exact answer *)
}

type outcome = Optimal of solution | Unbounded | Infeasible | Stalled

(** [solve ?max_pivots p] solves with float arithmetic (the problem
    statement itself stays exact). *)
val solve : ?max_pivots:int -> Problem.t -> outcome
