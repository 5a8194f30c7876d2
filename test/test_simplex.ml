(* Tests for the exact simplex solver, cross-checked against brute-force
   vertex enumeration and, pivot for pivot, against a rational
   Gauss-Jordan tableau (the [reference] group). *)

module Q = Numeric.Rational
module P = Simplex.Problem
module S = Simplex.Solver

let rat = Alcotest.testable Q.pp Q.equal
let q = Q.of_int
let qq = Q.of_ints

let lp direction objective constraints =
  P.make direction
    (Array.map Q.of_int objective)
    (List.map
       (fun (coeffs, rel, rhs) ->
         P.constr (Array.map Q.of_int coeffs) rel (Q.of_int rhs))
       constraints)

let check_optimal name expected problem =
  match S.solve problem with
  | S.Optimal s ->
    Alcotest.check rat (name ^ ": value") expected s.S.value;
    (match Simplex.Certify.check problem s with
    | Ok () -> ()
    | Error msgs -> Alcotest.fail (name ^ ": " ^ String.concat "; " msgs))
  | S.Unbounded -> Alcotest.fail (name ^ ": unexpectedly unbounded")
  | S.Infeasible -> Alcotest.fail (name ^ ": unexpectedly infeasible")

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_basic_max () =
  (* max 3x + 2y st x + y <= 4, x <= 2 -> (2,2), value 10 *)
  let p = lp P.Maximize [| 3; 2 |] [ ([| 1; 1 |], P.Le, 4); ([| 1; 0 |], P.Le, 2) ] in
  check_optimal "basic max" (q 10) p

let test_basic_min () =
  (* min x + y st x + 2y >= 4, 3x + y >= 6 -> intersection (8/5, 6/5), value 14/5 *)
  let p =
    lp P.Minimize [| 1; 1 |] [ ([| 1; 2 |], P.Ge, 4); ([| 3; 1 |], P.Ge, 6) ]
  in
  check_optimal "basic min" (qq 14 5) p

let test_equality_constraints () =
  (* max x st x + y = 3, x - y = 1 -> x = 2 *)
  let p = lp P.Maximize [| 1; 0 |] [ ([| 1; 1 |], P.Eq, 3); ([| 1; -1 |], P.Eq, 1) ] in
  check_optimal "equalities" (q 2) p

let test_infeasible () =
  (* x <= -1 contradicts x >= 0 *)
  let p = lp P.Maximize [| 1 |] [ ([| 1 |], P.Le, -1) ] in
  match S.solve p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_infeasible_equalities () =
  let p = lp P.Maximize [| 1; 1 |] [ ([| 1; 1 |], P.Eq, 1); ([| 1; 1 |], P.Eq, 2) ] in
  match S.solve p with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = lp P.Maximize [| 1; 0 |] [ ([| 0; 1 |], P.Le, 5) ] in
  match S.solve p with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_unbounded_after_phase1 () =
  (* Feasibility needs phase 1 (a Ge row), then the objective is unbounded. *)
  let p = lp P.Maximize [| 1; 1 |] [ ([| 1; 0 |], P.Ge, 2) ] in
  match S.solve p with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate_no_cycle () =
  (* A classical cycling example (Beale); Bland's rule must terminate. *)
  let p =
    P.make P.Maximize
      [| qq 3 4; Q.of_int (-150); qq 1 50; Q.of_int (-6) |]
      [
        P.constr [| qq 1 4; Q.of_int (-60); qq (-1) 25; q 9 |] P.Le Q.zero;
        P.constr [| Q.half; Q.of_int (-90); qq (-1) 50; q 3 |] P.Le Q.zero;
        P.constr [| Q.zero; Q.zero; Q.one; Q.zero |] P.Le Q.one;
      ]
  in
  check_optimal "Beale" (qq 1 20) p

let test_redundant_rows () =
  let p =
    lp P.Maximize [| 1; 1 |]
      [ ([| 1; 1 |], P.Eq, 2); ([| 2; 2 |], P.Eq, 4); ([| 1; 0 |], P.Le, 1) ]
  in
  check_optimal "redundant equalities" (q 2) p

let test_negative_rhs_orientation () =
  (* -x - y <= -2 is x + y >= 2. *)
  let p = lp P.Minimize [| 1; 2 |] [ ([| -1; -1 |], P.Le, -2) ] in
  check_optimal "negative rhs" (q 2) p

let test_zero_objective () =
  let p = lp P.Maximize [| 0; 0 |] [ ([| 1; 1 |], P.Le, 3) ] in
  check_optimal "zero objective" (q 0) p

let test_dimension_mismatch () =
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Problem.make: constraint 0 has 1 coefficients, expected 2")
    (fun () ->
      ignore (P.make P.Maximize [| Q.one; Q.one |] [ P.constr [| Q.one |] P.Le Q.one ]))

let test_fractional_solution () =
  (* max x + y st 2x + y <= 3, x + 3y <= 5 -> (4/5, 7/5), value 11/5 *)
  let p = lp P.Maximize [| 1; 1 |] [ ([| 2; 1 |], P.Le, 3); ([| 1; 3 |], P.Le, 5) ] in
  check_optimal "fractional" (qq 11 5) p;
  match S.solve p with
  | S.Optimal s ->
    Alcotest.check rat "x" (qq 4 5) s.S.point.(0);
    Alcotest.check rat "y" (qq 7 5) s.S.point.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_big_coefficients () =
  (* Exactness with large numbers: max x st 10^18 x <= 3 * 10^18. *)
  let big = Q.of_string "1000000000000000000" in
  let p =
    P.make P.Maximize [| Q.one |]
      [ P.constr [| big |] P.Le (Q.mul (q 3) big) ]
  in
  check_optimal "big coefficients" (q 3) p

(* ------------------------------------------------------------------ *)
(* Linear-algebra helpers                                              *)
(* ------------------------------------------------------------------ *)

let test_linear_solve () =
  let a = [| [| q 2; q 1 |]; [| q 1; q 3 |] |] in
  let b = [| q 5; q 10 |] in
  match Simplex.Linear.solve a b with
  | None -> Alcotest.fail "singular?"
  | Some x ->
    Alcotest.check rat "x0" (q 1) x.(0);
    Alcotest.check rat "x1" (q 3) x.(1)

let test_linear_singular () =
  let a = [| [| q 1; q 2 |]; [| q 2; q 4 |] |] in
  Alcotest.(check bool) "singular" true (Simplex.Linear.solve a [| q 1; q 2 |] = None)

let test_linear_rank () =
  Alcotest.(check int) "rank 2" 2
    (Simplex.Linear.rank [| [| q 1; q 0 |]; [| q 0; q 1 |]; [| q 1; q 1 |] |]);
  Alcotest.(check int) "rank 1" 1
    (Simplex.Linear.rank [| [| q 1; q 2 |]; [| q 2; q 4 |] |]);
  Alcotest.(check int) "rank 0" 0 (Simplex.Linear.rank [| [| q 0 |] |])

(* ------------------------------------------------------------------ *)
(* Property: simplex agrees with vertex enumeration                    *)
(* ------------------------------------------------------------------ *)

let gen_problem =
  let open QCheck2.Gen in
  let coeff = map Q.of_int (int_range (-5) 5) in
  let* n = int_range 1 3 in
  let* m = int_range 1 4 in
  let* objective = array_size (return n) coeff in
  let* constraints =
    list_size (return m)
      (let* coeffs = array_size (return n) coeff in
       let* rhs = map Q.of_int (int_range 0 10) in
       let* rel =
         (* mostly Le to keep feasible instances common *)
         frequency [ (6, return P.Le); (2, return P.Ge); (1, return P.Eq) ]
       in
       return (P.constr coeffs rel rhs))
  in
  let* direction = oneofl [ P.Maximize; P.Minimize ] in
  return (P.make direction objective constraints)

let prop_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"simplex agrees with vertex oracle"
       gen_problem (fun p ->
         match S.solve p with
         | S.Optimal s -> begin
           (match Simplex.Certify.check p s with
           | Ok () -> ()
           | Error m -> QCheck2.Test.fail_reportf "certify: %s" (String.concat ";" m));
           match Simplex.Vertex_enum.best p with
           | None -> QCheck2.Test.fail_reportf "solver optimal but no vertex"
           | Some (v, _) ->
             if not (Q.equal v s.S.value) then
               QCheck2.Test.fail_reportf "solver %s oracle %s" (Q.to_string s.S.value)
                 (Q.to_string v)
             else true
         end
         | S.Infeasible ->
           (* No feasible vertex may exist. *)
           Simplex.Vertex_enum.vertices p = []
         | S.Unbounded ->
           (* The region must at least be non-empty. *)
           Simplex.Vertex_enum.vertices p <> []))

(* ------------------------------------------------------------------ *)
(* LP file format                                                      *)
(* ------------------------------------------------------------------ *)

let problems_equal (a : P.t) (b : P.t) =
  a.P.direction = b.P.direction
  && a.P.names = b.P.names
  && Array.for_all2 Q.equal a.P.objective b.P.objective
  && Array.length a.P.constraints = Array.length b.P.constraints
  && Array.for_all2
       (fun (ca : P.constr) (cb : P.constr) ->
         ca.P.relation = cb.P.relation
         && Q.equal ca.P.rhs cb.P.rhs
         && Array.for_all2 Q.equal ca.P.coeffs cb.P.coeffs)
       a.P.constraints b.P.constraints

let test_lp_file_roundtrip_simple () =
  let p =
    lp P.Maximize [| 3; 2 |]
      [ ([| 1; 1 |], P.Le, 4); ([| 1; -2 |], P.Ge, -3); ([| 0; 1 |], P.Eq, 2) ]
  in
  match Simplex.Lp_file.of_string (Simplex.Lp_file.to_string p) with
  | Error e -> Alcotest.fail e
  | Ok p' -> Alcotest.(check bool) "roundtrip" true (problems_equal p p')

let test_lp_file_parse_handwritten () =
  let text =
    "\\ a comment\n\
     Minimize\n\
    \ obj: 1 x + 1/2 y\n\
     Subject To\n\
    \ c0: x + 2 y >= 4\n\
    \ weight: 3 x - y <= 10\n\
     End\n"
  in
  match Simplex.Lp_file.of_string text with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check int) "2 vars" 2 (P.num_vars p);
    Alcotest.(check int) "2 constraints" 2 (P.num_constraints p);
    (* min x + y/2 st x + 2y >= 4: all load on y, y = 2, value 1 *)
    (match S.solve p with
    | S.Optimal s -> Alcotest.check rat "solved" (q 1) s.S.value
    | _ -> Alcotest.fail "expected optimum")

let test_lp_file_errors () =
  let bad =
    [
      "";
      "Maximize\n obj: 1 x\n";
      "Maximize\n obj: 1 x\nSubject To\n x <= \nEnd\n";
      "Maximize\n obj: + \nSubject To\nEnd\n";
      "Frobnicate\n obj: 1 x\nSubject To\nEnd\n";
    ]
  in
  List.iter
    (fun text ->
      match Simplex.Lp_file.of_string text with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" text
      | Error _ -> ())
    bad

let test_lp_file_negative_rhs () =
  let text = "Maximize\n obj: 1 x\nSubject To\n c: x <= -2\nEnd\n" in
  match Simplex.Lp_file.of_string text with
  | Error e -> Alcotest.fail e
  | Ok p -> (
    match S.solve p with
    | S.Infeasible -> ()
    | _ -> Alcotest.fail "x <= -2 with x >= 0 must be infeasible")

let prop_lp_file_parser_total =
  (* The parser is total: random garbage must produce Error, never an
     exception. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"LP parser never raises"
       QCheck2.Gen.(
         string_size ~gen:(oneofl [ 'x'; '1'; '/'; '+'; '-'; '('; ':'; '='; '<';
                                    ' '; '\n'; 'M'; 'a'; 'e'; 'o'; 'b'; 'j' ])
           (int_range 0 80))
       (fun text ->
         match Simplex.Lp_file.of_string text with
         | Ok _ | Error _ -> true))

let prop_lp_file_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"LP file roundtrip" gen_problem
       (fun p ->
         match Simplex.Lp_file.of_string (Simplex.Lp_file.to_string p) with
         | Error e -> QCheck2.Test.fail_reportf "parse error: %s" e
         | Ok p' -> problems_equal p p'))

let prop_solution_feasible =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"optimal points are feasible" gen_problem
       (fun p ->
         match S.solve p with
         | S.Optimal s -> Simplex.Certify.is_feasible p s.S.point
         | S.Infeasible | S.Unbounded -> true))

(* ------------------------------------------------------------------ *)
(* Problem and certification edge cases                                *)
(* ------------------------------------------------------------------ *)

let test_problem_pp_smoke () =
  let p =
    P.make ~names:[| "load"; "slack" |] P.Maximize [| q 3; Q.zero |]
      [ P.constr [| q 1; q 1 |] P.Le (q 4) ]
  in
  let s = Format.asprintf "%a" P.pp p in
  Alcotest.(check bool) "names printed" true
    (String.length s > 0
    &&
    let rec find i =
      i + 4 <= String.length s && (String.sub s i 4 = "load" || find (i + 1))
    in
    find 0)

let test_problem_eval_holds () =
  let c = P.constr [| q 2; q 1 |] P.Ge (q 4) in
  Alcotest.check rat "eval" (q 5) (P.eval_constraint c [| q 2; q 1 |]);
  Alcotest.(check bool) "holds" true (P.holds c [| q 2; q 1 |]);
  Alcotest.(check bool) "violated" false (P.holds c [| q 1; q 0 |])

let test_problem_bad_names () =
  Alcotest.check_raises "wrong name count"
    (Invalid_argument "Problem.make: wrong number of variable names") (fun () ->
      ignore (P.make ~names:[| "x" |] P.Maximize [| q 1; q 1 |] []))

let test_certify_rejects_bad_solutions () =
  let p = lp P.Maximize [| 1 |] [ ([| 1 |], P.Le, 2) ] in
  let sol value point = { S.value; point; pivots = 0; basis = [||] } in
  (* wrong dimension *)
  (match Simplex.Certify.check p (sol (q 2) [| q 2; q 0 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dimension mismatch accepted");
  (* infeasible point *)
  (match Simplex.Certify.check p (sol (q 3) [| q 3 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "infeasible point accepted");
  (* negative variable *)
  (match Simplex.Certify.check p (sol (q (-1)) [| q (-1) |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "negative point accepted");
  (* value mismatch *)
  match Simplex.Certify.check p (sol (q 2) [| q 1 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong value accepted"

let test_vertex_enum_lists_square () =
  (* 0 <= x,y <= 1: four vertices (possibly with degenerate duplicates). *)
  let p =
    lp P.Maximize [| 1; 1 |] [ ([| 1; 0 |], P.Le, 1); ([| 0; 1 |], P.Le, 1) ]
  in
  let vertices =
    List.sort_uniq Stdlib.compare
      (List.map
         (fun v -> Array.to_list (Array.map Q.to_float v))
         (Simplex.Vertex_enum.vertices p))
  in
  Alcotest.(check int) "four corners" 4 (List.length vertices)

(* ------------------------------------------------------------------ *)
(* Float solver (differential testing against the exact one)           *)
(* ------------------------------------------------------------------ *)

let test_float_solver_basic () =
  let p = lp P.Maximize [| 3; 2 |] [ ([| 1; 1 |], P.Le, 4); ([| 1; 0 |], P.Le, 2) ] in
  match Simplex.Float_solver.solve p with
  | Simplex.Float_solver.Optimal s ->
    Alcotest.(check (float 1e-9)) "value" 10.0 s.Simplex.Float_solver.value
  | _ -> Alcotest.fail "expected optimal"

let test_float_solver_infeasible () =
  let p = lp P.Maximize [| 1 |] [ ([| 1 |], P.Le, -1) ] in
  match Simplex.Float_solver.solve p with
  | Simplex.Float_solver.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_float_stall_cap () =
  (* A one-pivot cap stalls the float solver on a problem needing more;
     the fast pipeline turns this into an exact fallback. *)
  let p = lp P.Maximize [| 1; 1 |] [ ([| 2; 1 |], P.Le, 3); ([| 1; 3 |], P.Le, 5) ] in
  match Simplex.Float_solver.solve ~max_pivots:1 p with
  | Simplex.Float_solver.Stalled -> ()
  | _ -> Alcotest.fail "expected stall under a 1-pivot cap"

let prop_float_matches_exact =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"float solver tracks the exact solver"
       gen_problem (fun p ->
         match (S.solve p, Simplex.Float_solver.solve p) with
         | S.Optimal exact, Simplex.Float_solver.Optimal approx ->
           let e = Q.to_float exact.S.value in
           let scale = Float.max 1.0 (Float.abs e) in
           if Float.abs (approx.Simplex.Float_solver.value -. e) > 1e-6 *. scale
           then
             QCheck2.Test.fail_reportf "exact %.12g, float %.12g" e
               approx.Simplex.Float_solver.value
           else true
         | S.Unbounded, Simplex.Float_solver.Unbounded -> true
         | S.Infeasible, Simplex.Float_solver.Infeasible -> true
         | _, Simplex.Float_solver.Stalled -> true (* tolerated: float backstop *)
         | _ ->
           (* Tolerance may flip near-degenerate classifications; only
              tolerate that when the exact optimum is essentially 0. *)
           (match S.solve p with
           | S.Optimal e -> Float.abs (Q.to_float e.S.value) < 1e-6
           | _ -> false)))

(* ------------------------------------------------------------------ *)
(* Restricted factorization certificate                                 *)
(* ------------------------------------------------------------------ *)

let test_certify_own_basis () =
  (* Certifying the cold solve's own terminal basis must reproduce its
     value and point with zero pivots — the fast pipeline's core step. *)
  let p = lp P.Maximize [| 1; 1 |] [ ([| 2; 1 |], P.Le, 3); ([| 1; 3 |], P.Le, 5) ] in
  let s = S.solve_exn p in
  match S.certify_basis p ~basis:s.S.basis with
  | Some s' ->
    Alcotest.check rat "value" s.S.value s'.S.value;
    Alcotest.(check bool) "point" true (Array.for_all2 Q.equal s.S.point s'.S.point);
    Alcotest.(check int) "no pivots" 0 s'.S.pivots
  | None -> Alcotest.fail "expected a certificate"

let test_certify_rejects () =
  let p = lp P.Maximize [| 1; 1 |] [ ([| 2; 1 |], P.Le, 3); ([| 1; 3 |], P.Le, 5) ] in
  let reject prob basis name =
    match S.certify_basis prob ~basis with
    | None -> ()
    | Some _ -> Alcotest.fail name
  in
  reject p [| 0 |] "wrong length certified";
  reject p [| 0; 0 |] "duplicate column certified";
  reject p [| 0; 7 |] "out-of-range column certified";
  reject p [| 0; 2 |] "infeasible basis certified";
  reject p [| 2; 3 |] "suboptimal slack basis certified";
  (* Unsupported shape: a >= row must fall back, never certify. *)
  let ge = lp P.Minimize [| 1; 1 |] [ ([| 1; 2 |], P.Ge, 4) ] in
  reject ge [| 0 |] ">= constraint certified";
  (* Genuine alternate optima (the whole edge x + y = 1 is optimal):
     the zero reduced cost sits on an objective column, which is never
     twin-tolerable, so no certificate exists for any basis. *)
  let edge = lp P.Maximize [| 1; 1 |] [ ([| 1; 1 |], P.Le, 1) ] in
  let s = S.solve_exn edge in
  reject edge s.S.basis "alternate optimum certified"

let test_certify_twin_tolerance () =
  (* [z] (zero objective) appears only in the slack row 1, so its column
     duplicates that row's slack: the reduced cost of the nonbasic twin
     is structurally zero, yet the optimum is unique in [x] — the
     certificate must tolerate the pair and still succeed. *)
  let p =
    P.make P.Maximize
      [| Q.one; Q.zero |]
      [
        P.constr [| Q.one; Q.zero |] P.Le Q.one;
        P.constr [| Q.half; Q.one |] P.Le Q.one;
      ]
  in
  let s = S.solve_exn p in
  match S.certify_basis p ~basis:s.S.basis with
  | Some s' ->
    Alcotest.check rat "value" s.S.value s'.S.value;
    Alcotest.check rat "x" s.S.point.(0) s'.S.point.(0)
  | None -> Alcotest.fail "twin pair rejected"

let prop_certify_matches_cold =
  (* Whenever the certificate accepts the cold solve's own basis, it
     must agree with the cold solve on the value and on every objective
     coordinate of the point (twin pairs carry zero objective, so the
     guarantee covers everything callers read). *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"certify_basis agrees with the cold solve"
       gen_problem (fun p ->
         match S.solve p with
         | S.Optimal s -> (
           match S.certify_basis p ~basis:s.S.basis with
           | None -> true
           | Some s' ->
             Q.equal s.S.value s'.S.value
             && Array.for_all
                  (fun j ->
                    Q.sign p.P.objective.(j) = 0
                    || Q.equal s.S.point.(j) s'.S.point.(j))
                  (Array.init (P.num_vars p) Fun.id))
         | S.Unbounded | S.Infeasible -> true))

let prop_certify_float_basis =
  (* The full fast-pipeline step: certify the float solver's terminal
     basis.  Certified answers must match the cold solve exactly. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"certified float basis is exact"
       gen_problem (fun p ->
         match Simplex.Float_solver.solve p with
         | Simplex.Float_solver.Optimal f -> (
           match S.certify_basis p ~basis:f.Simplex.Float_solver.basis with
           | None -> true
           | Some s' -> (
             match S.solve p with
             | S.Optimal s ->
               Q.equal s.S.value s'.S.value
               && Array.for_all
                    (fun j ->
                      Q.sign p.P.objective.(j) = 0
                      || Q.equal s.S.point.(j) s'.S.point.(j))
                    (Array.init (P.num_vars p) Fun.id)
             | _ -> false))
         | _ -> true))

(* ------------------------------------------------------------------ *)
(* Reference: the rational Gauss-Jordan tableau                        *)
(* ------------------------------------------------------------------ *)

(* The exact solver runs Bland's pivots on a fraction-free integer
   tableau.  Its reference is the same two-phase Bland simplex on a
   rational Gauss-Jordan tableau: both must agree on the outcome and,
   when optimal, on the value, the point, the terminal basis and the
   pivot count, which together pin the pivot path. *)
module Ref = Simplex.Solver_core.Make (Simplex.Field.Rational)

let disagreement p =
  let show_q a = String.concat "," (Array.to_list (Array.map Q.to_string a)) in
  let show_i a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  match (S.solve p, Ref.solve ~max_pivots:max_int p) with
  | S.Optimal s, Ref.Optimal r ->
    if
      Q.equal s.S.value r.Ref.value
      && Array.for_all2 Q.equal s.S.point r.Ref.point
      && s.S.basis = r.Ref.basis && s.S.pivots = r.Ref.pivots
    then None
    else
      Some
        (Printf.sprintf "value %s / %s, point %s / %s, basis %s / %s, pivots %d / %d"
           (Q.to_string s.S.value) (Q.to_string r.Ref.value) (show_q s.S.point)
           (show_q r.Ref.point) (show_i s.S.basis) (show_i r.Ref.basis) s.S.pivots
           r.Ref.pivots)
  | S.Unbounded, Ref.Unbounded | S.Infeasible, Ref.Infeasible -> None
  | o, _ -> Some (Format.asprintf "outcomes differ: %a" S.pp_outcome o)

let check_reference name p =
  Option.iter (fun msg -> Alcotest.failf "%s: %s" name msg) (disagreement p)

(* Rational coefficients, right-hand sides of both signs, all three
   relations, both directions, and rows repeated with a rational factor
   of either sign (redundant equalities, duplicated or opposed
   inequalities). *)
let gen_reference_problem =
  let open QCheck2.Gen in
  let frac lo hi =
    map2 (fun a b -> Q.of_ints a b) (int_range lo hi) (int_range 1 4)
  in
  let* n = int_range 1 5 in
  let* m = int_range 1 5 in
  let* objective = array_size (return n) (frac (-5) 5) in
  let* rows =
    list_size (return m)
      (let* coeffs = array_size (return n) (frac (-5) 5) in
       let* rhs = frac (-6) 10 in
       let* rel = frequency [ (5, return P.Le); (2, return P.Ge); (2, return P.Eq) ] in
       return (P.constr coeffs rel rhs))
  in
  let* copies =
    list_size (int_range 0 2)
      (let* i = int_range 0 (m - 1) in
       let* k = oneofl [ Q.of_int 2; Q.of_ints 1 3; Q.of_int (-1); Q.of_ints (-3) 2 ] in
       let* rel = oneofl [ P.Le; P.Ge; P.Eq ] in
       return (i, k, rel))
  in
  let copied =
    List.map
      (fun (i, k, rel) ->
        let (c : P.constr) = List.nth rows i in
        P.constr (Array.map (Q.mul k) c.P.coeffs) rel (Q.mul k c.P.rhs))
      copies
  in
  let* direction = oneofl [ P.Maximize; P.Minimize ] in
  return (P.make direction objective (rows @ copied))

let prop_reference_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"random LPs match the rational tableau"
       ~print:(Format.asprintf "%a" P.pp) gen_reference_problem (fun p ->
         match disagreement p with
         | None -> true
         | Some msg -> QCheck2.Test.fail_report msg))

(* Beale's cycling example, an equality system, an infeasible and an
   unbounded-after-phase-1 program, huge coefficients, and an
   artificial driven out of the basis on a negative entry, after which
   phase 2 runs with a negative basis determinant. *)
let fixed_problems () =
  let big = Q.of_string "1000000000000000000" in
  List.mapi
    (fun i p -> (Printf.sprintf "fixed %d" i, p))
    [
      P.make P.Maximize
        [| qq 3 4; Q.of_int (-150); qq 1 50; Q.of_int (-6) |]
        [
          P.constr [| qq 1 4; Q.of_int (-60); qq (-1) 25; q 9 |] P.Le Q.zero;
          P.constr [| Q.half; Q.of_int (-90); qq (-1) 50; q 3 |] P.Le Q.zero;
          P.constr [| Q.zero; Q.zero; Q.one; Q.zero |] P.Le Q.one;
        ];
      lp P.Maximize [| 1; 0 |] [ ([| 1; 1 |], P.Eq, 3); ([| 1; -1 |], P.Eq, 1) ];
      lp P.Maximize [| 1; 1 |] [ ([| 1; 1 |], P.Eq, 1); ([| 1; 1 |], P.Eq, 2) ];
      lp P.Maximize [| 1; 1 |] [ ([| 1; 0 |], P.Ge, 2) ];
      lp P.Minimize [| 1; 2 |] [ ([| -1; -1 |], P.Le, -2) ];
      P.make P.Maximize [| Q.one; big |]
        [ P.constr [| big; Q.inv big |] P.Le (Q.mul (q 3) big) ];
      lp P.Maximize [| 0; 0; 1 |]
        [ ([| -1; -1; 0 |], P.Eq, 0); ([| 0; 0; 1 |], P.Le, 2); ([| 1; 0; 1 |], P.Le, 3) ];
    ]

let test_reference_fixed () =
  List.iter (fun (name, p) -> check_reference name p) (fixed_problems ())

let zero_row_problems () =
  List.mapi
    (fun i p -> (Printf.sprintf "zero row %d" i, p))
    [
      lp P.Maximize [| -3 |]
        [ ([| -4 |], P.Le, 8); ([| 0 |], P.Eq, 0); ([| 3 |], P.Le, 10) ];
      lp P.Maximize [| 0 |] [ ([| -1 |], P.Eq, 0); ([| 1 |], P.Eq, 0) ];
    ]

let test_reference_redundant_zero_row () =
  (* [0 x0 = 0] leaves its phase-1 artificial basic at zero: no
     structural column can drive it out.  The same happens to a row
     that phase 1 reduces to zero ([x0 = 0] after [-x0 = 0]).  The
     artificial must stay in the terminal basis, as in the reference. *)
  List.iter
    (fun (name, p) ->
      check_reference name p;
      let s = S.solve_exn p in
      let slacks =
        Array.fold_left
          (fun k (c : P.constr) -> if c.P.relation = P.Eq then k else k + 1)
          0 p.P.constraints
      in
      let artificial = P.num_vars p + slacks in
      Alcotest.(check bool) (name ^ ": artificial basic") true
        (Array.exists (fun c -> c >= artificial) s.S.basis))
    (zero_row_problems ())

(* LP (2) of p = 11 platforms of the Fig. 10-13 families (each
   heterogeneity scenario plain and with communication or computation
   x10), at z = 1/2, 1 and 3/2, in FIFO and LIFO order. *)
let lp2_problems () =
  let rng = Numeric.Prng.create ~seed:2006 in
  List.concat_map
    (fun (sc, comm_times, comp_times) ->
      List.concat_map
        (fun z ->
          let f =
            Cluster.Gen.scale ~comm_times ~comp_times
              (Cluster.Gen.factors rng sc ~workers:11)
          in
          let base = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:100 f in
          let platform =
            Dls.Platform.with_return_ratio ~z
              (List.init 11 (fun k ->
                   let wk = Dls.Platform.get base k in
                   (wk.Dls.Platform.c, wk.Dls.Platform.w)))
          in
          List.map
            (fun (order, scenario) ->
              ( Printf.sprintf "%s x%d/x%d z=%s %s"
                  (Cluster.Gen.scenario_name sc) comm_times comp_times (Q.to_string z)
                  order,
                Dls.Lp_model.problem Dls.Lp_model.One_port scenario ))
            [
              ("fifo", Dls.Scenario.fifo_exn platform (Dls.Fifo.order platform));
              ("lifo", Dls.Scenario.lifo_exn platform (Dls.Lifo.order platform));
            ])
        [ Q.half; Q.one; qq 3 2 ])
    (List.concat_map
       (fun sc -> [ (sc, 1, 1); (sc, 10, 1); (sc, 1, 10) ])
       Cluster.Gen.[ Homogeneous; Hom_comm_het_comp; Heterogeneous ])

let test_reference_lp2 () =
  List.iter (fun (name, p) -> check_reference name p) (lp2_problems ())

(* The multi-load LPs: steady state (equality rows, so phase 1 runs) and
   batches at every interleave depth, at p = 3 and 4. *)
let multiload_problems () =
  let platforms =
    [
      Dls.Platform.with_return_ratio ~z:Q.half
        [ (Q.one, q 2); (qq 1 2, q 3); (q 2, qq 3 2) ];
      Dls.Platform.make_exn
        [
          Dls.Platform.worker ~c:(qq 1 3) ~w:(q 2) ~d:(qq 1 6) ();
          Dls.Platform.worker ~c:(qq 1 2) ~w:(qq 5 2) ~d:(qq 3 4) ();
          Dls.Platform.worker ~c:(qq 1 3) ~w:(qq 7 3) ~d:(qq 1 3) ();
          Dls.Platform.worker ~c:Q.one ~w:(qq 3 2) ~d:(qq 3 2) ();
        ];
    ]
  in
  let workloads =
    [
      Dls.Workload.make_exn
        [ Dls.Workload.load ~size:(q 5) (); Dls.Workload.load ~size:(q 3) () ];
      Dls.Workload.make_exn
        [
          Dls.Workload.load ~size:(q 4) ();
          Dls.Workload.load ~release:(qq 1 2) ~z:(q 2) ~size:(q 2) ();
          Dls.Workload.load ~release:Q.one ~size:(qq 3 2) ();
        ];
    ]
  in
  List.concat
    (List.mapi
       (fun pi platform ->
         List.concat
           (List.mapi
              (fun wi workload ->
                let name = Printf.sprintf "platform %d workload %d" pi wi in
                (name ^ " steady", Dls.Steady_state.problem platform workload)
                :: List.init (Dls.Workload.size workload) (fun depth ->
                       ( Printf.sprintf "%s batch depth %d" name depth,
                         Dls.Steady_state.batch_problem ~depth platform workload )))
              workloads))
       platforms)

let test_reference_multiload () =
  List.iter (fun (name, p) -> check_reference name p) (multiload_problems ())

(* [Certify.check] evaluates each row as an integer dot product over the
   point's common denominator.  Its reference is the rational
   evaluation it replaced, one [Problem.holds] per row: both must give
   the same verdict and the same messages, on the solver's answers and
   on answers moved just off them. *)
let reference_check (p : P.t) (s : S.solution) =
  let x = s.S.point in
  let errs =
    if Array.length x <> P.num_vars p then
      [ Printf.sprintf "point has %d coordinates, expected %d" (Array.length x) (P.num_vars p) ]
    else begin
      let errs = ref [] in
      let add e = errs := e :: !errs in
      Array.iteri
        (fun j v ->
          if Q.sign v < 0 then
            add (Printf.sprintf "variable %s = %s is negative" p.P.names.(j) (Q.to_string v)))
        x;
      Array.iteri
        (fun i c ->
          if not (P.holds c x) then
            add
              (Printf.sprintf "constraint %d violated: lhs = %s, rhs = %s" i
                 (Q.to_string (P.eval_constraint c x))
                 (Q.to_string c.P.rhs)))
        p.P.constraints;
      let v = P.objective_value p x in
      if not (Q.equal v s.S.value) then
        add
          (Printf.sprintf "claimed value %s but point evaluates to %s" (Q.to_string s.S.value)
             (Q.to_string v));
      List.rev !errs
    end
  in
  if errs = [] then Ok () else Error errs

(* The answer itself; each coordinate moved by +-1/2^60 and made
   negative; the claimed value off by +-1/10^30; a point one
   coordinate short. *)
let moved_answers (s : S.solution) =
  let module I = Numeric.Integer in
  let eps = Q.make I.one (I.pow (I.of_int 2) 60) in
  let tiny = Q.make I.one (I.pow (I.of_int 10) 30) in
  let n = Array.length s.S.point in
  let at j f =
    let point = Array.copy s.S.point in
    point.(j) <- f point.(j);
    { s with S.point }
  in
  s
  :: { s with S.value = Q.add s.S.value tiny }
  :: { s with S.value = Q.sub s.S.value tiny }
  :: { s with S.point = Array.sub s.S.point 0 (n - 1) }
  :: List.concat
       (List.init n (fun j ->
            [
              at j (Q.add eps);
              at j (fun x -> Q.sub x eps);
              at j (fun x -> Q.neg (Q.add x Q.one));
            ]))

let test_check_reference () =
  let verdicts = Hashtbl.create 2 in
  let compare_checks name p (s : S.solution) =
    let got = Simplex.Certify.check p s and want = reference_check p s in
    Hashtbl.replace verdicts (Result.is_ok want) ();
    match (got, want) with
    | Ok (), Ok () -> ()
    | Error g, Error w -> Alcotest.(check (list string)) (name ^ ": messages") w g
    | Ok (), Error w -> Alcotest.failf "%s: accepted, reference says %s" name (String.concat "; " w)
    | Error g, Ok () -> Alcotest.failf "%s: rejected (%s), reference accepts" name (String.concat "; " g)
  in
  let random =
    List.mapi
      (fun i p -> (Printf.sprintf "random %d" i, p))
      (QCheck2.Gen.generate ~rand:(Random.State.make [| 2006; 60 |]) ~n:300 gen_reference_problem)
  in
  List.iter
    (fun (name, p) ->
      match S.solve p with
      | S.Optimal s -> List.iteri (fun k s -> compare_checks (Printf.sprintf "%s #%d" name k) p s) (moved_answers s)
      | S.Unbounded | S.Infeasible -> ())
    (fixed_problems () @ zero_row_problems () @ lp2_problems () @ multiload_problems () @ random);
  if Hashtbl.length verdicts < 2 then Alcotest.fail "vacuous: one verdict only"

let () =
  Alcotest.run "simplex"
    [
      ( "solver.unit",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "basic min" `Quick test_basic_min;
          Alcotest.test_case "equalities" `Quick test_equality_constraints;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "infeasible eq" `Quick test_infeasible_equalities;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "unbounded after phase1" `Quick
            test_unbounded_after_phase1;
          Alcotest.test_case "Beale degenerate" `Quick test_degenerate_no_cycle;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_orientation;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch;
          Alcotest.test_case "fractional optimum" `Quick test_fractional_solution;
          Alcotest.test_case "big coefficients" `Quick test_big_coefficients;
        ] );
      ( "linear.unit",
        [
          Alcotest.test_case "solve" `Quick test_linear_solve;
          Alcotest.test_case "singular" `Quick test_linear_singular;
          Alcotest.test_case "rank" `Quick test_linear_rank;
        ] );
      ("solver.props", [ prop_matches_oracle; prop_solution_feasible ]);
      ( "problem",
        [
          Alcotest.test_case "pp" `Quick test_problem_pp_smoke;
          Alcotest.test_case "eval/holds" `Quick test_problem_eval_holds;
          Alcotest.test_case "bad names" `Quick test_problem_bad_names;
          Alcotest.test_case "certify rejects" `Quick test_certify_rejects_bad_solutions;
          Alcotest.test_case "vertex square" `Quick test_vertex_enum_lists_square;
        ] );
      ( "float_solver",
        [
          Alcotest.test_case "basic" `Quick test_float_solver_basic;
          Alcotest.test_case "infeasible" `Quick test_float_solver_infeasible;
          Alcotest.test_case "float stall cap" `Quick test_float_stall_cap;
          prop_float_matches_exact;
        ] );
      ( "certify_basis",
        [
          Alcotest.test_case "own basis" `Quick test_certify_own_basis;
          Alcotest.test_case "rejections" `Quick test_certify_rejects;
          Alcotest.test_case "twin tolerance" `Quick test_certify_twin_tolerance;
          prop_certify_matches_cold;
          prop_certify_float_basis;
        ] );
      ( "reference",
        [
          Alcotest.test_case "fixed programs" `Quick test_reference_fixed;
          Alcotest.test_case "redundant zero row" `Quick
            test_reference_redundant_zero_row;
          Alcotest.test_case "p=11 LP (2)" `Quick test_reference_lp2;
          Alcotest.test_case "multi-load LPs" `Quick test_reference_multiload;
          Alcotest.test_case "Certify.check = rational rows" `Quick test_check_reference;
          prop_reference_random;
        ] );
      ( "lp_file",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_lp_file_roundtrip_simple;
          Alcotest.test_case "handwritten" `Quick test_lp_file_parse_handwritten;
          Alcotest.test_case "errors" `Quick test_lp_file_errors;
          Alcotest.test_case "negative rhs" `Quick test_lp_file_negative_rhs;
          prop_lp_file_roundtrip;
          prop_lp_file_parser_total;
        ] );
    ]
