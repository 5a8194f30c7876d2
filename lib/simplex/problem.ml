module Q = Numeric.Rational

type relation = Le | Ge | Eq
type constr = { coeffs : Q.t array; relation : relation; rhs : Q.t }
type direction = Maximize | Minimize

type t = {
  direction : direction;
  objective : Q.t array;
  constraints : constr array;
  names : string array;
}

let constr coeffs relation rhs = { coeffs; relation; rhs }

let orient c =
  if Q.sign c.rhs >= 0 then c
  else
    let relation = match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq in
    { coeffs = Array.map Q.neg c.coeffs; relation; rhs = Q.neg c.rhs }

let make ?names direction objective constraints =
  let n = Array.length objective in
  List.iteri
    (fun i c ->
      if Array.length c.coeffs <> n then
        invalid_arg
          (Printf.sprintf
             "Problem.make: constraint %d has %d coefficients, expected %d" i
             (Array.length c.coeffs) n))
    constraints;
  let names =
    match names with
    | Some a ->
      if Array.length a <> n then
        invalid_arg "Problem.make: wrong number of variable names";
      a
    | None -> Array.init n (Printf.sprintf "x%d")
  in
  { direction; objective; constraints = Array.of_list constraints; names }

let num_vars p = Array.length p.objective
let num_constraints p = Array.length p.constraints
let eval_constraint c x = Linear.dot c.coeffs x
let objective_value p x = Linear.dot p.objective x

let holds c x =
  let lhs = eval_constraint c x in
  match c.relation with
  | Le -> Q.compare lhs c.rhs <= 0
  | Ge -> Q.compare lhs c.rhs >= 0
  | Eq -> Q.equal lhs c.rhs

let pp_relation fmt = function
  | Le -> Format.pp_print_string fmt "<="
  | Ge -> Format.pp_print_string fmt ">="
  | Eq -> Format.pp_print_string fmt "="

let pp_linear names fmt coeffs =
  let first = ref true in
  Array.iteri
    (fun j a ->
      if not (Q.is_zero a) then begin
        if !first then first := false else Format.fprintf fmt " + ";
        Format.fprintf fmt "%a %s" Q.pp a names.(j)
      end)
    coeffs;
  if !first then Format.pp_print_string fmt "0"

let pp fmt p =
  Format.fprintf fmt "@[<v>%s %a@,subject to@,"
    (match p.direction with Maximize -> "maximize" | Minimize -> "minimize")
    (pp_linear p.names) p.objective;
  Array.iter
    (fun c ->
      Format.fprintf fmt "  %a %a %a@," (pp_linear p.names) c.coeffs pp_relation
        c.relation Q.pp c.rhs)
    p.constraints;
  Format.fprintf fmt "  %s >= 0@]"
    (String.concat ", " (Array.to_list p.names))
