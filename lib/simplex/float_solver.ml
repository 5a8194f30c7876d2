module Fast = Solver_core.Make (Field.Float)

type solution = { value : float; point : float array; pivots : int; basis : int array }
type outcome = Optimal of solution | Unbounded | Infeasible | Stalled

let solve ?max_pivots p =
  match Fast.solve ?max_pivots p with
  | Fast.Optimal s ->
    Optimal
      {
        value = s.Fast.value;
        point = s.Fast.point;
        pivots = s.Fast.pivots;
        basis = s.Fast.basis;
      }
  | Fast.Unbounded -> Unbounded
  | Fast.Infeasible -> Infeasible
  | Fast.Stalled -> Stalled
