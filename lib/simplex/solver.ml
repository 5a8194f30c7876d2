(* Exact two-phase primal simplex with Bland's rule on a fraction-free
   integer tableau (Edmonds 1967; Bareiss 1968).

   The tableau is an integer matrix [T] (constraint rows, then the
   objective row) over one common denominator [D]: the true tableau is
   [T / D], and [D] is the determinant of the current basis in the
   integerised system.  The initial basis is the identity, so [D = 1].
   Pivoting on [(r, c)] keeps row [r] and replaces every other row [i],
   objective included, by [(T_rc * T_ij - T_ic * T_rj) / D]; then
   [D := T_rc].  Each entry stays a minor of the integerised system, so
   the division is exact and no gcd is ever taken.  [D] may be
   negative: true signs are [sign T * sign D].  (The code skips rows
   whose pivot-column entry is zero; see [refresh].)

   Set-up.  Rows with a negative right-hand side are negated (the
   relation flips).  Each structural column, and the right-hand side, is
   scaled to its primitive integer vector ({!integer_vector}); each row is
   then divided by its content, and the variable that starts basic in
   it (slack or artificial), as well as a [>=] row's surplus, is
   rescaled by the same factor, so its column is a signed unit vector.
   Positive row and column scalings leave every choice of Bland's rule
   unchanged: reduced costs keep their signs, the ratios [b_i / a_ic] of
   one entering column scale by one common factor, and basis indices do
   not move.  The pivot path, hence [value], [point], [basis] and
   [pivots], is the one a rational Gauss-Jordan tableau takes on the
   unscaled problem.  Columns are scaled first because a column of the
   scheduling LPs holds one worker's parameters, while a row mixes the
   denominators of many workers.

   Phase 1 minimises the sum of the {e unscaled} artificials: the
   artificial of a row divided by its content [g] weighs [g].  Weight 1
   on every rescaled artificial would be a different phase-1 LP, which
   can end on a different basis on degenerate problems. *)

module Q = Numeric.Rational
module I = Numeric.Integer

type solution = { value : Q.t; point : Q.t array; pivots : int; basis : int array }
type outcome = Optimal of solution | Unbounded | Infeasible
type error = Error_unbounded | Error_infeasible

exception Error of error

(* [integer_vector a] is [(v, s)]: [v = s * a] is the primitive integer
   vector positively proportional to [a], with [s] the lcm of the
   denominators over the gcd of the scaled numerators ([s = 1] on a zero
   vector).  It scales the rows of [certify_basis]'s systems and the
   columns of the simplex tableau. *)
let integer_vector row =
  let scaled, l = Q.common_denominator row in
  let g = Array.fold_left I.gcd_integer I.zero scaled in
  let g = if I.is_zero g then I.one else g in
  (Array.map (fun v -> I.divexact v g) scaled, Q.make l g)

type tableau = {
  rows : I.t array array;
      (* the constraint rows, then the objective row (reduced costs and
         minus the value); column [total] is the right-hand side *)
  dens : I.t array;  (* each row's own denominator *)
  basis : int array;
  allowed : bool array;
  total : int;
  mutable det : I.t;  (* D *)
  mutable pivots : int;
}

(* Rows whose entry in the pivot column is zero are not rewritten: the
   integer row of the common-denominator tableau would only take the
   factor [T_rc / D], and the signs and ratios that Bland's rule reads
   do not need it.  So each row keeps the denominator [D_k] of the last
   pivot that touched it, and the true row is [S_i / D_k].  Its
   common-denominator form is [S_i * D / D_k]: the skipped factors
   telescope, since each pivot's [T_rc] is the next [D].  Pivoting a row
   [i] with [S_ic <> 0] then needs no catching up:
   [(T_rc * S_i - S_ic * T_r) / D_k] is the common-denominator row after
   the pivot, exactly, and its denominator is the new [D = T_rc].  Only
   the pivot row itself is brought to [D] first. *)
let refresh t i =
  let d = t.det and di = t.dens.(i) in
  if not (I.equal d di) then begin
    let row = t.rows.(i) in
    Array.iteri
      (fun j v -> if not (I.is_zero v) then row.(j) <- I.divexact (I.mul v d) di)
      row;
    t.dens.(i) <- d
  end

let pivot t ~row ~col =
  refresh t row;
  let pr = t.rows.(row) in
  let p = pr.(col) in
  Array.iteri
    (fun i target ->
      let f = target.(col) in
      if i <> row && not (I.is_zero f) then begin
        let d = t.dens.(i) in
        for j = 0 to t.total do
          let a = pr.(j) and v = target.(j) in
          let x =
            if I.is_zero a then I.mul p v
            else if I.is_zero v then I.neg (I.mul f a)
            else I.sub (I.mul p v) (I.mul f a)
          in
          target.(j) <- I.divexact x d
        done;
        t.dens.(i) <- p
      end)
    t.rows;
  t.dens.(row) <- p;
  t.det <- p;
  t.basis.(row) <- col;
  t.pivots <- t.pivots + 1

(* Bland's rule: the smallest allowed column with a positive reduced
   cost enters; among the rows with a positive entry in it, the smallest
   ratio [rhs / entry] leaves, ties to the smallest basic index.  A true
   sign is the stored sign times the sign of the row's denominator.  The
   ratios of two eligible rows compare by cross-multiplication, since
   their entries share one sign: every pivot Bland's rule takes has a
   positive true pivot entry, so [D] keeps its sign within a phase.  It
   can turn negative only while artificials are driven out, and
   {!install_objective} then brings every row to the new [D]. *)
let rec optimize t =
  let m = Array.length t.basis in
  let sign i j = I.sign t.rows.(i).(j) * I.sign t.dens.(i) in
  let entering = ref (-1) in
  (try
     for j = 0 to t.total - 1 do
       if t.allowed.(j) && sign m j > 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    let best = ref (-1) in
    for i = 0 to m - 1 do
      if sign i col > 0 then begin
        let better =
          !best < 0
          ||
          let r = t.rows.(i) and b = t.rows.(!best) in
          let c = I.compare (I.mul r.(t.total) b.(col)) (I.mul b.(t.total) r.(col)) in
          c < 0 || (c = 0 && t.basis.(i) < t.basis.(!best))
        in
        if better then best := i
      end
    done;
    if !best < 0 then `Unbounded
    else begin
      pivot t ~row:!best ~col;
      optimize t
    end
  end

(* [obj := D * c - sum_i c_(basis i) * T_i], over denominator [D]: the
   reduced costs of the integer cost vector [c] (width [total + 1], zero
   in the rhs). *)
let install_objective t c =
  let m = Array.length t.basis in
  for i = 0 to m - 1 do
    refresh t i
  done;
  let obj = t.rows.(m) in
  Array.iteri (fun j v -> obj.(j) <- I.mul t.det v) c;
  t.dens.(m) <- t.det;
  Array.iteri
    (fun i bv ->
      let f = c.(bv) in
      if not (I.is_zero f) then
        Array.iteri (fun j v -> obj.(j) <- I.sub obj.(j) (I.mul f v)) t.rows.(i))
    t.basis

let solve (p : Problem.t) =
  let n = Problem.num_vars p in
  let m = Problem.num_constraints p in
  let oriented = Array.map Problem.orient p.Problem.constraints in
  let count keep =
    Array.fold_left (fun acc c -> if keep c.Problem.relation then acc + 1 else acc) 0 oriented
  in
  let n_slack = count (fun r -> r <> Problem.Eq) in
  let n_art = count (fun r -> r <> Problem.Le) in
  let total = n + n_slack + n_art in
  (* Scale each structural column and the rhs to integers, then divide
     each row by its content [g]; the row's slack, surplus and artificial
     are rescaled by [1 / g], so their columns stay signed unit vectors,
     and the artificial weighs [g] in phase 1. *)
  let cols =
    Array.init (n + 1) (fun j ->
        integer_vector
          (Array.map
             (fun (c : Problem.constr) -> if j < n then c.Problem.coeffs.(j) else c.Problem.rhs)
             oriented))
  in
  let rows = Array.make_matrix (m + 1) (total + 1) I.zero in
  let basis = Array.make m (-1) in
  let phase1 = Array.make (total + 1) I.zero in
  let next_slack = ref n in
  let next_art = ref (n + n_slack) in
  Array.iteri
    (fun i (c : Problem.constr) ->
      let row = rows.(i) in
      let g = ref I.zero in
      for j = 0 to n do
        let v = (fst cols.(j)).(i) in
        row.(if j < n then j else total) <- v;
        g := I.gcd_integer !g v
      done;
      let g = if I.is_zero !g then I.one else !g in
      if not (I.equal g I.one) then
        for j = 0 to total do
          row.(j) <- I.divexact row.(j) g
        done;
      let artificial () =
        row.(!next_art) <- I.one;
        phase1.(!next_art) <- I.neg g;
        basis.(i) <- !next_art;
        incr next_art
      in
      match c.Problem.relation with
      | Problem.Le ->
        row.(!next_slack) <- I.one;
        basis.(i) <- !next_slack;
        incr next_slack
      | Problem.Ge ->
        row.(!next_slack) <- I.minus_one;
        incr next_slack;
        artificial ()
      | Problem.Eq -> artificial ())
    oriented;
  let t =
    {
      rows;
      dens = Array.make (m + 1) I.one;
      basis;
      allowed = Array.make total true;
      total;
      det = I.one;
      pivots = 0;
    }
  in
  let sign_q =
    match p.Problem.direction with
    | Problem.Maximize -> Q.one
    | Problem.Minimize -> Q.minus_one
  in
  let phase2 () =
    let c, k =
      integer_vector
        (Array.init (total + 1) (fun j ->
             if j < n then Q.mul sign_q (Q.mul p.Problem.objective.(j) (snd cols.(j)))
             else Q.zero))
    in
    install_objective t c;
    match optimize t with
    | `Unbounded -> Unbounded
    | `Optimal ->
      (* [x_j] is its tableau value times the scale of column [j] over
         that of the rhs. *)
      let rhs_scale = snd cols.(n) in
      let point = Array.make n Q.zero in
      Array.iteri
        (fun i bv ->
          if bv < n then
            point.(bv) <-
              Q.mul (Q.make rows.(i).(total) t.dens.(i)) (Q.div (snd cols.(bv)) rhs_scale))
        t.basis;
      (* The objective row's true rhs is [-k * sign * rhs_scale * value]. *)
      let value =
        Q.div (Q.make (I.neg rows.(m).(total)) t.dens.(m)) (Q.mul sign_q (Q.mul k rhs_scale))
      in
      Optimal { value; point; pivots = t.pivots; basis = Array.copy t.basis }
  in
  if n_art = 0 then phase2 ()
  else begin
    install_objective t phase1;
    (match optimize t with `Unbounded -> assert false | `Optimal -> ());
    if I.sign rows.(m).(total) * I.sign t.dens.(m) > 0 then Infeasible
    else begin
      (* Drive the artificials left basic (at zero) out of the basis
         where a structural or slack column allows it. *)
      let structural = n + n_slack in
      Array.iteri
        (fun i bv ->
          if bv >= structural then begin
            let row = rows.(i) in
            let rec first j =
              if j >= structural then ()
              else if I.is_zero row.(j) then first (j + 1)
              else pivot t ~row:i ~col:j
            in
            first 0
          end)
        t.basis;
      Array.fill t.allowed structural n_art false;
      phase2 ()
    end
  end

let solve_result p =
  match solve p with
  | Optimal s -> Ok s
  | Unbounded -> Result.Error Error_unbounded
  | Infeasible -> Result.Error Error_infeasible

(* ------------------------------------------------------------------ *)
(* Restricted exact factorization of a candidate basis.

   [certify_basis] answers one question: is [basis] the unique optimal
   basis of [p]?  If so it returns the (unique) optimal solution without
   running the simplex method at all: two [m x m] exact linear solves
   and a pricing pass replace the pivots of the full tableau.

   The arithmetic is fraction-free: each row of the basis system is
   scaled to integers ({!integer_vector}) and eliminated with the
   Montante/Bareiss one-step method, which keeps every intermediate
   value an integer minor of the scaled matrix and needs no gcds.  A
   singular basis or a failed tolerance simply rejects the basis
   (returns [None]), and the caller falls back to the canonical cold
   solve — so the routine can only ever trade speed, never correctness.

   Acceptance requires, in exact arithmetic:
   - primal feasibility: [B x_B = b] with [x_B >= 0];
   - complementary duals: [B^T y = c_B] (so basic reduced costs vanish);
   - strict dual feasibility: [c_j - y . A_j < 0] for every non-basic
     column, slack columns included (for a maximization) — except that a
     reduced cost of exactly zero is tolerated on a column that is a
     bit-exact duplicate (coefficients and zero objective) of a basic
     column.
   The strict inequalities prove the optimal point unique in every
   coordinate outside such duplicate pairs: an exchange between twins
   [A_j = A_k] moves weight one-for-one within the pair ([B^-1 A_j] is
   the basic twin's unit vector) and touches nothing else.  The
   scheduling LPs hit this exactly once per slack deadline row, whose
   idle variable duplicates the row's slack — and callers there never
   read either twin (idle is recomputed canonically), so the returned
   point is bit-identical to {!solve}'s wherever it is consumed. *)

exception Cert_reject

(* Solve the [m x m] system given by [entry] (row, col) and [rhs] with
   fraction-free Gauss-Jordan elimination (Montante/Bareiss): each row is
   first scaled to integers ({!integer_vector}), then eliminated with the
   one-step identity [a_ij := (piv * a_ij - a_ik * a_kj) / prev_piv],
   whose divisions are exact — every intermediate value is a minor of
   the scaled matrix, so no rational normalization (and no gcd) ever
   runs.

   Returns [(numerators, denominator)]: after the last step every pivot
   entry equals the same determinant value, so one denominator serves
   all components.  Raises [Cert_reject] on a singular matrix. *)
let montante_solve m entry rhs =
  let mat =
    Array.init m (fun i ->
        fst
          (integer_vector (Array.init (m + 1) (fun j -> if j < m then entry i j else rhs i))))
  in
  let rowof = Array.make m (-1) in
  let claimed = Array.make m false in
  let prev = ref I.one in
  for k = 0 to m - 1 do
    let r = ref (-1) in
    (try
       for i = 0 to m - 1 do
         if (not claimed.(i)) && not (I.is_zero mat.(i).(k)) then begin
           r := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !r < 0 then raise Cert_reject;
    let r = !r in
    rowof.(k) <- r;
    claimed.(r) <- true;
    let piv = mat.(r).(k) in
    for i = 0 to m - 1 do
      if i <> r then begin
        let f = mat.(i).(k) in
        let fz = I.is_zero f in
        for j = 0 to m do
          if j <> k then
            mat.(i).(j) <-
              (let scaled = I.mul piv mat.(i).(j) in
               let v = if fz then scaled else I.sub scaled (I.mul f mat.(r).(j)) in
               I.divexact v !prev)
        done;
        mat.(i).(k) <- I.zero
      end
    done;
    prev := piv
  done;
  let det = mat.(rowof.(m - 1)).(m - 1) in
  (Array.init m (fun k -> mat.(rowof.(k)).(m)), det)

(* Small float LU solve used as a pre-screen: hopeless bases (wrong
   length aside: infeasible, suboptimal, or sitting on alternate optima)
   are rejected for the cost of a few hundred float ops, before any
   exact arithmetic is spent on them. *)
let float_solve m entry rhs =
  let a = Array.init m (fun i -> Array.init m (entry i)) in
  let x = Array.init m rhs in
  let piv_order = Array.init m Fun.id in
  for k = 0 to m - 1 do
    let best = ref k and best_mag = ref (Float.abs a.(piv_order.(k)).(k)) in
    for i = k + 1 to m - 1 do
      let mag = Float.abs a.(piv_order.(i)).(k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < 1e-12 then raise Cert_reject;
    let tmp = piv_order.(k) in
    piv_order.(k) <- piv_order.(!best);
    piv_order.(!best) <- tmp;
    let pr = piv_order.(k) in
    for i = k + 1 to m - 1 do
      let ri = piv_order.(i) in
      let f = a.(ri).(k) /. a.(pr).(k) in
      if f <> 0.0 then begin
        for j = k to m - 1 do
          a.(ri).(j) <- a.(ri).(j) -. (f *. a.(pr).(j))
        done;
        x.(ri) <- x.(ri) -. (f *. x.(pr))
      end
    done
  done;
  let out = Array.make m 0.0 in
  for k = m - 1 downto 0 do
    let r = piv_order.(k) in
    let s = ref x.(r) in
    for j = k + 1 to m - 1 do
      s := !s -. (a.(r).(j) *. out.(j))
    done;
    out.(k) <- !s /. a.(r).(k)
  done;
  out

let certify_basis (p : Problem.t) ~basis =
  let n = Problem.num_vars p in
  let m = Problem.num_constraints p in
  let cs = p.Problem.constraints in
  try
    (* Supported shape: every constraint [<=] with non-negative rhs (the
       scheduling LPs; the slack basis is feasible and column [n + i] is
       row [i]'s slack).  Anything else falls back to the cold solve. *)
    if
      not
        (Array.for_all
           (fun (c : Problem.constr) ->
             c.Problem.relation = Problem.Le && Q.sign c.Problem.rhs >= 0)
           cs)
    then raise Cert_reject;
    if Array.length basis <> m then raise Cert_reject;
    let seen = Array.make (n + m) false in
    Array.iter
      (fun j ->
        if j < 0 || j >= n + m || seen.(j) then raise Cert_reject;
        seen.(j) <- true)
      basis;
    let basic = seen in
    (* Column [j] of the standard-form matrix, at row [i]. *)
    let col i j =
      if j < n then cs.(i).Problem.coeffs.(j)
      else if j - n = i then Q.one
      else Q.zero
    in
    let sign_q =
      match p.Problem.direction with
      | Problem.Maximize -> Q.one
      | Problem.Minimize -> Q.minus_one
    in
    let obj j = if j < n then Q.mul sign_q p.Problem.objective.(j) else Q.zero in
    let b_entry i k = col i basis.(k) in
    let bt_entry k i = col i basis.(k) in
    (* A zero reduced cost is tolerable only on an exact duplicate of a
       basic zero-objective column (see the header): anything else opens
       a genuine alternate-optimum direction and rejects the basis. *)
    let duplicate_of_basic j =
      Q.sign (obj j) = 0
      && Array.exists
           (fun k ->
             k <> j
             && Q.sign (obj k) = 0
             &&
             let rec eq i = i >= m || (Q.equal (col i k) (col i j) && eq (i + 1)) in
             eq 0)
           basis
    in
    (* -------- float screen -------- *)
    let fcol i j = Q.to_float (col i j) in
    let fx =
      float_solve m
        (fun i k -> fcol i basis.(k))
        (fun i -> Q.to_float cs.(i).Problem.rhs)
    in
    Array.iter (fun v -> if v < -1e-7 then raise Cert_reject) fx;
    let fy =
      float_solve m
        (fun k i -> fcol i basis.(k))
        (fun k -> Q.to_float (obj basis.(k)))
    in
    for j = 0 to n + m - 1 do
      if not basic.(j) then begin
        let r = ref (Q.to_float (obj j)) in
        for i = 0 to m - 1 do
          let a = fcol i j in
          if a <> 0.0 then r := !r -. (fy.(i) *. a)
        done;
        (* Near-zero reduced costs mean alternate optima (or a wrong
           basis): no certificate is possible, except on a twin column
           whose exact reduced cost is structurally zero. *)
        if !r > -1e-7 && not (duplicate_of_basic j) then raise Cert_reject
      end
    done;
    (* -------- exact certificate -------- *)
    let xs, xden = montante_solve m b_entry (fun i -> cs.(i).Problem.rhs) in
    let xsign = I.sign xden in
    Array.iter (fun v -> if I.sign v * xsign < 0 then raise Cert_reject) xs;
    let ys, yden = montante_solve m bt_entry (fun k -> obj basis.(k)) in
    let ysign = I.sign yden in
    (* Strict dual feasibility, checked without any rational arithmetic:
       [r_j = c_j - y . A_j < 0] with [y_i = ys_i / yden].  Multiplying
       by [yden] and by the positive factor that makes [(c_j, A_j)] the
       integer vector [v] turns the test into a pure integer sign:
       [sign(v_0 * yden - sum_i ys_i * v_(i+1)) * sign(yden) < 0]. *)
    let reduced_sign j =
      let v, _ =
        integer_vector (Array.init (m + 1) (fun i -> if i = 0 then obj j else col (i - 1) j))
      in
      let acc = ref (I.mul v.(0) yden) in
      for i = 0 to m - 1 do
        if not (I.is_zero v.(i + 1)) then acc := I.sub !acc (I.mul ys.(i) v.(i + 1))
      done;
      I.sign !acc * ysign
    in
    for j = 0 to n + m - 1 do
      if not basic.(j) then begin
        let s = reduced_sign j in
        if s > 0 || (s = 0 && not (duplicate_of_basic j)) then raise Cert_reject
      end
    done;
    (* -------- assemble the unique optimum -------- *)
    let point = Array.make n Q.zero in
    Array.iteri
      (fun k j -> if j < n then point.(j) <- Q.make xs.(k) xden)
      basis;
    let value = ref Q.zero in
    Array.iteri
      (fun j c ->
        if Q.sign c <> 0 && Q.sign point.(j) <> 0 then
          value := Q.add !value (Q.mul c point.(j)))
      p.Problem.objective;
    Some { value = !value; point; pivots = 0; basis = Array.copy basis }
  with Cert_reject -> None

let solve_exn p =
  match solve_result p with Ok s -> s | Result.Error e -> raise (Error e)

let pp_outcome fmt = function
  | Unbounded -> Format.pp_print_string fmt "unbounded"
  | Infeasible -> Format.pp_print_string fmt "infeasible"
  | Optimal s ->
    Format.fprintf fmt "@[optimal %a at (%a) in %d pivots@]" Q.pp s.value
      (Format.pp_print_array
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         Q.pp)
      s.point s.pivots
