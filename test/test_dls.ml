(* Tests for the divisible-load scheduling core: the scenario LP,
   Theorem 1 (optimal FIFO ordering), Theorem 2 (bus closed form), LIFO,
   schedules and rounding. *)

module Q = Numeric.Rational
open Q.Infix

let rat = Alcotest.testable Q.pp Q.equal
let q = Q.of_int
let qq = Q.of_ints

let worker ?name c w d =
  Dls.Platform.worker ?name ~c:(qq (fst c) (snd c)) ~w:(qq (fst w) (snd w))
    ~d:(qq (fst d) (snd d)) ()

(* The running two-worker example, z = 1/2:
   P1 (c=1, w=1, d=1/2), P2 (c=1, w=2, d=1/2). *)
let two_worker_platform () =
  Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (1, 1) (2, 1) (1, 2) ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_pos_rational =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* d = int_range 1 10 in
  return (qq n d)

(* A platform with uniform return ratio [z]. *)
let gen_platform ?z ~min_size ~max_size () =
  let open QCheck2.Gen in
  let* n = int_range min_size max_size in
  let* z = match z with Some z -> return z | None -> gen_pos_rational in
  let* specs = list_size (return n) (pair gen_pos_rational gen_pos_rational) in
  return (Dls.Platform.with_return_ratio ~z specs)

let gen_small_z =
  let open QCheck2.Gen in
  let* n = int_range 1 9 in
  let* d = int_range (n + 1) 12 in
  return (qq n d)

let gen_big_z =
  let open QCheck2.Gen in
  let* n = int_range 2 12 in
  let* d = int_range 1 (n - 1) in
  return (qq n d)

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Platform                                                            *)
(* ------------------------------------------------------------------ *)

let test_platform_validation () =
  (match Dls.Platform.make [] with
  | Error (Dls.Errors.Invalid_scenario _) -> ()
  | Ok _ -> Alcotest.fail "empty platform accepted"
  | Error e -> Alcotest.failf "unexpected error: %s" (Dls.Errors.to_string e));
  Alcotest.check_raises "empty (exn)"
    (Dls.Errors.Error (Dls.Errors.Invalid_scenario "Platform.make: no workers"))
    (fun () -> ignore (Dls.Platform.make_exn []));
  Alcotest.check_raises "zero c"
    (Invalid_argument "Platform.worker: c must be positive") (fun () ->
      ignore (Dls.Platform.worker ~c:Q.zero ~w:Q.one ~d:Q.one ()));
  Alcotest.check_raises "negative d"
    (Invalid_argument "Platform.worker: d must be non-negative") (fun () ->
      ignore (Dls.Platform.worker ~c:Q.one ~w:Q.one ~d:Q.minus_one ()))

let test_platform_z_ratio () =
  let p = two_worker_platform () in
  Alcotest.(check (option rat)) "z = 1/2" (Some Q.half) (Dls.Platform.z_ratio p);
  let p2 =
    Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (1, 1) (1, 1) (1, 3) ]
  in
  Alcotest.(check (option rat)) "non-uniform" None (Dls.Platform.z_ratio p2)

let test_platform_is_bus () =
  Alcotest.(check bool) "bus" true (Dls.Platform.is_bus (two_worker_platform ()));
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (2, 1) (1, 1) (1, 1) ]
  in
  Alcotest.(check bool) "star" false (Dls.Platform.is_bus p)

let test_platform_scaling () =
  let p = Dls.Platform.scale_comm Q.two (two_worker_platform ()) in
  Alcotest.check rat "c doubled" Q.two (Dls.Platform.get p 0).Dls.Platform.c;
  Alcotest.check rat "d doubled" Q.one (Dls.Platform.get p 0).Dls.Platform.d;
  Alcotest.check rat "w kept" Q.one (Dls.Platform.get p 0).Dls.Platform.w;
  let p = Dls.Platform.scale_comp Q.half (two_worker_platform ()) in
  Alcotest.check rat "w halved" Q.half (Dls.Platform.get p 0).Dls.Platform.w

let test_platform_sorted_stable () =
  (* Equal keys keep the original order: sorting by c here is stable. *)
  let p =
    Dls.Platform.make_exn
      [ worker (2, 1) (1, 1) (1, 1); worker (1, 1) (9, 1) (1, 2); worker (1, 1) (1, 1) (1, 2) ]
  in
  let idx = Dls.Platform.sorted_indices_by p (fun wk -> wk.Dls.Platform.c) in
  Alcotest.(check (array int)) "stable sort" [| 1; 2; 0 |] idx

let test_platform_restrict () =
  let p = Dls.Platform.restrict (two_worker_platform ()) [| 1 |] in
  Alcotest.(check int) "size 1" 1 (Dls.Platform.size p);
  Alcotest.check rat "kept worker" Q.two (Dls.Platform.get p 0).Dls.Platform.w

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)
(* ------------------------------------------------------------------ *)

let test_scenario_validation () =
  let p = two_worker_platform () in
  let expect_invalid label r =
    match r with
    | Ok _ -> Alcotest.fail (label ^ " accepted")
    | Error (Dls.Errors.Invalid_scenario _) -> ()
    | Error e -> Alcotest.fail (label ^ ": wrong error " ^ Dls.Errors.to_string e)
  in
  expect_invalid "duplicate"
    (Dls.Scenario.make p ~sigma1:[| 0; 0 |] ~sigma2:[| 0; 1 |]);
  expect_invalid "out of range"
    (Dls.Scenario.make p ~sigma1:[| 0; 2 |] ~sigma2:[| 0; 2 |]);
  expect_invalid "different sets"
    (Dls.Scenario.make p ~sigma1:[| 0 |] ~sigma2:[| 1 |]);
  expect_invalid "empty" (Dls.Scenario.make p ~sigma1:[||] ~sigma2:[||]);
  (* The _exn wrapper raises the typed exception, not Invalid_argument. *)
  (try
     ignore (Dls.Scenario.make_exn p ~sigma1:[| 0; 0 |] ~sigma2:[| 0; 1 |]);
     Alcotest.fail "duplicate accepted by make_exn"
   with Dls.Errors.Error (Dls.Errors.Invalid_scenario _) -> ())

let test_scenario_kinds () =
  let p = two_worker_platform () in
  let f = Dls.Scenario.fifo_exn p [| 1; 0 |] in
  Alcotest.(check bool) "fifo is fifo" true (Dls.Scenario.is_fifo f);
  let l = Dls.Scenario.lifo_exn p [| 1; 0 |] in
  Alcotest.(check bool) "lifo is lifo" true (Dls.Scenario.is_lifo l);
  Alcotest.(check bool) "lifo not fifo" false (Dls.Scenario.is_fifo l);
  Alcotest.(check int) "send pos" 0 (Dls.Scenario.send_position l 1);
  Alcotest.(check int) "return pos" 1 (Dls.Scenario.return_position l 1)

(* ------------------------------------------------------------------ *)
(* LP model: hand-computed instances                                   *)
(* ------------------------------------------------------------------ *)

let test_lp_single_worker () =
  (* One worker: rho = 1 / (c + w + d). *)
  let p = Dls.Platform.make_exn [ worker (2, 1) (3, 1) (1, 1) ] in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.all_workers_fifo p) in
  Alcotest.check rat "rho" (qq 1 6) sol.Dls.Lp_model.rho

let test_lp_two_workers_fifo () =
  (* Hand-solved above: alpha = (4/11, 2/11), rho = 6/11. *)
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  Alcotest.check rat "rho" (qq 6 11) sol.Dls.Lp_model.rho;
  Alcotest.check rat "alpha1" (qq 4 11) sol.Dls.Lp_model.alpha.(0);
  Alcotest.check rat "alpha2" (qq 2 11) sol.Dls.Lp_model.alpha.(1)

let test_lp_two_workers_lifo () =
  (* Hand-solved above: rho = 18/35 with alpha = (2/5, 4/35). *)
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.lifo_exn p [| 0; 1 |]) in
  Alcotest.check rat "rho" (qq 18 35) sol.Dls.Lp_model.rho;
  Alcotest.check rat "alpha1" (qq 2 5) sol.Dls.Lp_model.alpha.(0);
  Alcotest.check rat "alpha2" (qq 4 35) sol.Dls.Lp_model.alpha.(1)

let test_lp_two_port_relaxation () =
  (* Dropping the one-port constraint can only help. *)
  let p = two_worker_platform () in
  let s = Dls.Scenario.fifo_exn p [| 0; 1 |] in
  let one = Dls.Solve.solve_exn ~mode:`Exact ~model:Dls.Lp_model.One_port s in
  let two = Dls.Solve.solve_exn ~mode:`Exact ~model:Dls.Lp_model.Two_port s in
  Alcotest.(check bool) "two-port >= one-port" true
    (two.Dls.Lp_model.rho >=/ one.Dls.Lp_model.rho)

let test_lp_time_for_load () =
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  Alcotest.check rat "time for 6 loads" (q 11)
    (Dls.Lp_model.time_for_load sol ~load:(q 6))

let prop_constraint_report_lemma1 =
  prop ~count:60 "constraint report: slacks >= 0, Lemma 1 structure"
    (gen_platform ~min_size:1 ~max_size:5 ())
    (fun p ->
      let sol = Dls.Fifo.optimal p in
      let report = Dls.Lp_model.constraint_report sol in
      let all_nonneg =
        List.for_all (fun st -> Q.sign st.Dls.Lp_model.slack >= 0) report
      in
      let everyone_enrolled =
        Array.for_all (fun a -> Q.sign a > 0) sol.Dls.Lp_model.alpha
      in
      let non_binding =
        List.length (List.filter (fun st -> not st.Dls.Lp_model.binding) report)
      in
      all_nonneg && ((not everyone_enrolled) || non_binding <= 1))

let test_constraint_report_shape () =
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let report = Dls.Lp_model.constraint_report sol in
  Alcotest.(check int) "2 deadlines + port" 3 (List.length report);
  Alcotest.(check bool) "port row present" true
    (List.exists (fun st -> st.Dls.Lp_model.label = "one-port") report);
  (* hand-computed instance: both deadlines bind, the port is slack
     (1.5 * 6/11 = 9/11 < 1). *)
  List.iter
    (fun st ->
      if st.Dls.Lp_model.label = "one-port" then begin
        Alcotest.(check bool) "port slack" false st.Dls.Lp_model.binding;
        Alcotest.check rat "port slack value" (qq 2 11) st.Dls.Lp_model.slack
      end
      else Alcotest.(check bool) "deadline binds" true st.Dls.Lp_model.binding)
    report

let prop_estimate_rho_accurate =
  prop ~count:60 "float estimate tracks the exact rho"
    (gen_platform ~min_size:1 ~max_size:6 ())
    (fun p ->
      let s = Dls.Scenario.fifo_exn p (Dls.Fifo.order p) in
      let exact = Q.to_float (Dls.Solve.solve_exn ~mode:`Exact s).Dls.Lp_model.rho in
      match Dls.Lp_model.estimate_rho s with
      | None -> QCheck2.Test.fail_reportf "float solver stalled"
      | Some approx ->
        if Float.abs (approx -. exact) > 1e-6 *. Float.max 1.0 exact then
          QCheck2.Test.fail_reportf "exact %.12g vs estimate %.12g" exact approx
        else true)

let test_lp_enrolled_subset () =
  (* Enrolling only worker 1 leaves worker 0 with zero load. *)
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 1 |]) in
  Alcotest.check rat "alpha0 = 0" Q.zero sol.Dls.Lp_model.alpha.(0);
  Alcotest.check rat "rho = 1/(c2+w2+d2)" (qq 2 7) sol.Dls.Lp_model.rho;
  Alcotest.(check (list int)) "enrolled" [ 1 ] (Dls.Lp_model.enrolled_workers sol)

(* ------------------------------------------------------------------ *)
(* Theorem 1: optimal FIFO                                             *)
(* ------------------------------------------------------------------ *)

let test_fifo_order_small_z () =
  (* z = 1/2 < 1: non-decreasing c. *)
  let p =
    Dls.Platform.make_exn
      [ worker (3, 1) (1, 1) (3, 2); worker (1, 1) (1, 1) (1, 2); worker (2, 1) (1, 1) (1, 1) ]
  in
  Alcotest.(check (array int)) "ascending c" [| 1; 2; 0 |] (Dls.Fifo.order p)

let test_fifo_order_big_z () =
  (* z = 2 > 1: non-increasing c (mirror argument). *)
  let p =
    Dls.Platform.make_exn
      [ worker (3, 1) (1, 1) (6, 1); worker (1, 1) (1, 1) (2, 1); worker (2, 1) (1, 1) (4, 1) ]
  in
  Alcotest.(check (array int)) "descending c" [| 0; 2; 1 |] (Dls.Fifo.order p)

let test_fifo_drops_slow_worker () =
  (* The best FIFO schedule may not enroll all workers (Section 1). *)
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (100, 1) (1, 1) (50, 1) ]
  in
  let best = Dls.Brute.best_fifo p in
  Alcotest.check rat "slow worker dropped" Q.zero best.Dls.Lp_model.alpha.(1);
  Alcotest.check rat "rho = 2/5" (qq 2 5) best.Dls.Lp_model.rho

let prop_theorem1_small_z =
  prop ~count:60 "Theorem 1: sorted FIFO is optimal (z < 1)"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:4 ())
    (fun p ->
      let brute = Dls.Brute.best_fifo p in
      let smart = Dls.Fifo.optimal p in
      Q.equal brute.Dls.Lp_model.rho smart.Dls.Lp_model.rho)

let prop_theorem1_big_z =
  prop ~count:40 "Theorem 1 mirrored: sorted FIFO is optimal (z > 1)"
    QCheck2.Gen.(gen_big_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:4 ())
    (fun p ->
      let brute = Dls.Brute.best_fifo p in
      let smart = Dls.Fifo.optimal p in
      Q.equal brute.Dls.Lp_model.rho smart.Dls.Lp_model.rho)

let prop_mirror_agrees =
  prop ~count:60 "mirror construction matches direct solve (z > 1)"
    QCheck2.Gen.(gen_big_z >>= fun z -> gen_platform ~z ~min_size:1 ~max_size:5 ())
    (fun p ->
      let direct = Dls.Fifo.optimal p in
      let m = Dls.Fifo.optimal_via_mirror_exn p in
      let rho = m.Dls.Fifo.solved.Dls.Lp_model.rho in
      Q.equal rho direct.Dls.Lp_model.rho
      &&
      match Dls.Schedule.validate m.Dls.Fifo.schedule with
      | Ok () -> Q.equal (Dls.Schedule.total_load m.Dls.Fifo.schedule) rho
      | Error msgs -> QCheck2.Test.fail_reportf "%s" (String.concat "; " msgs))

let prop_monotone_in_workers =
  prop ~count:60 "adding a worker never hurts"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:5 ())
    (fun p ->
      let n = Dls.Platform.size p in
      let sub = Dls.Platform.restrict p (Array.init (n - 1) Fun.id) in
      (Dls.Fifo.optimal p).Dls.Lp_model.rho
      >=/ (Dls.Fifo.optimal sub).Dls.Lp_model.rho)

let prop_idle_structure =
  prop ~count:80 "all workers enrolled => at most one idle gap"
    (gen_platform ~min_size:1 ~max_size:5 ())
    (fun p ->
      let sol = Dls.Fifo.optimal p in
      if Array.exists Q.is_zero sol.Dls.Lp_model.alpha then
        QCheck2.assume_fail ()
      else begin
        let sched = Dls.Schedule.of_solved sol in
        let gaps =
          List.filter
            (fun { Dls.Schedule.idle; _ } -> Q.sign idle > 0)
            (Dls.Schedule.idle_times sched)
        in
        List.length gaps <= 1
      end)

(* ------------------------------------------------------------------ *)
(* Theorem 2: bus closed form                                          *)
(* ------------------------------------------------------------------ *)

let test_closed_form_single () =
  (* One worker, c = d = w = 1: u = 1/2, rho~ = 1/3 = 1/(c+w+d). *)
  Alcotest.check rat "u" Q.half (Dls.Closed_form.bus_u ~c:Q.one ~d:Q.one [| Q.one |]).(0);
  Alcotest.check rat "rho" (qq 1 3)
    (Dls.Closed_form.fifo_throughput ~c:Q.one ~d:Q.one [| Q.one |])

let test_closed_form_saturated () =
  (* Many fast workers saturate the port: rho = 1/(c+d). *)
  let ws = Array.make 6 (qq 1 100) in
  Alcotest.check rat "saturated" (qq 2 3)
    (Dls.Closed_form.fifo_throughput ~c:Q.one ~d:Q.half ws)

let prop_theorem2_matches_lp =
  prop ~count:60 "Theorem 2 closed form = FIFO LP on a bus"
    (let open QCheck2.Gen in
     let* c = gen_pos_rational in
     let* dnum = int_range 1 9 in
     let* n = int_range 1 5 in
     let* ws = list_size (return n) gen_pos_rational in
     return (c, Q.mul (qq dnum 10) c, ws))
    (fun (c, d, ws) ->
      let formula = Dls.Closed_form.fifo_throughput ~c ~d (Array.of_list ws) in
      let p = Dls.Platform.bus ~c ~d ws in
      let lp = Dls.Fifo.optimal p in
      Q.equal formula lp.Dls.Lp_model.rho)

let prop_theorem2_two_port =
  prop ~count:60 "rho~ = two-port FIFO LP on a bus"
    (let open QCheck2.Gen in
     let* c = gen_pos_rational in
     let* dnum = int_range 1 9 in
     let* n = int_range 1 4 in
     let* ws = list_size (return n) gen_pos_rational in
     return (c, Q.mul (qq dnum 10) c, ws))
    (fun (c, d, ws) ->
      let formula = Dls.Closed_form.two_port_throughput ~c ~d (Array.of_list ws) in
      let p = Dls.Platform.bus ~c ~d ws in
      let lp = Dls.Fifo.optimal ~model:Dls.Lp_model.Two_port p in
      Q.equal formula lp.Dls.Lp_model.rho)

let prop_theorem2_order_invariant =
  prop ~count:80 "bus throughput is order-invariant (Adler et al.)"
    (let open QCheck2.Gen in
     let* c = gen_pos_rational in
     let* dnum = int_range 1 9 in
     let* ws = list_size (int_range 2 5) gen_pos_rational in
     let* seed = int_range 0 1000 in
     return (c, Q.mul (qq dnum 10) c, ws, seed))
    (fun (c, d, ws, seed) ->
      let a = Array.of_list ws in
      let shuffled = Array.copy a in
      (* deterministic Fisher-Yates from the seed *)
      let state = ref seed in
      let next bound =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      for i = Array.length shuffled - 1 downto 1 do
        let j = next (i + 1) in
        let t = shuffled.(i) in
        shuffled.(i) <- shuffled.(j);
        shuffled.(j) <- t
      done;
      Q.equal
        (Dls.Closed_form.fifo_throughput ~c ~d a)
        (Dls.Closed_form.fifo_throughput ~c ~d shuffled))

(* ------------------------------------------------------------------ *)
(* LIFO                                                                *)
(* ------------------------------------------------------------------ *)

let prop_lifo_order_optimal =
  prop ~count:50 "LIFO: non-decreasing c order is optimal (z < 1)"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:4 ())
    (fun p ->
      let brute = Dls.Brute.best_lifo p in
      let smart = Dls.Lifo.optimal p in
      Q.equal brute.Dls.Lp_model.rho smart.Dls.Lp_model.rho)

let prop_lifo_oneport_equals_twoport =
  prop ~count:80 "LIFO one-port LP = two-port LP (deadline row dominates)"
    (gen_platform ~min_size:1 ~max_size:5 ())
    (fun p ->
      let ord = Dls.Lifo.order p in
      let one = Dls.Lifo.solve_order ~model:Dls.Lp_model.One_port p ord in
      let two = Dls.Lifo.solve_order ~model:Dls.Lp_model.Two_port p ord in
      Q.equal one.Dls.Lp_model.rho two.Dls.Lp_model.rho)

(* ------------------------------------------------------------------ *)
(* Heuristics and brute force                                          *)
(* ------------------------------------------------------------------ *)

let prop_inc_c_beats_inc_w =
  prop ~count:60 "INC_C >= INC_W (z < 1)"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:5 ())
    (fun p ->
      (Dls.Heuristics.solve Dls.Heuristics.Inc_c p).Dls.Lp_model.rho
      >=/ (Dls.Heuristics.solve Dls.Heuristics.Inc_w p).Dls.Lp_model.rho)

let prop_general_at_least_fifo_lifo =
  prop ~count:12 "best general >= best FIFO, best LIFO"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:3 ())
    (fun p ->
      let general = (Dls.Brute.best_general p).Dls.Lp_model.rho in
      general >=/ (Dls.Brute.best_fifo p).Dls.Lp_model.rho
      && general >=/ (Dls.Brute.best_lifo p).Dls.Lp_model.rho)

let test_permutations_count () =
  Alcotest.(check int) "4! = 24" 24 (List.length (Dls.Brute.permutations 4));
  Alcotest.(check int) "0! = 1" 1 (List.length (Dls.Brute.permutations 0));
  (* all distinct *)
  let perms = List.map (fun a -> Array.to_list a) (Dls.Brute.permutations 4) in
  Alcotest.(check int) "distinct" 24
    (List.length (List.sort_uniq Stdlib.compare perms))

let test_permutations_seq_agrees () =
  (* the eager list is a thin wrapper over the lazy iterator: same
     permutations, same order *)
  List.iter
    (fun n ->
      let eager = Dls.Brute.permutations n in
      let lazy_ = List.of_seq (Dls.Brute.permutations_seq n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d" n)
        true
        (List.length eager = List.length lazy_
        && List.for_all2 (fun a b -> a = b) eager lazy_))
    [ 0; 1; 2; 3; 5 ];
  (* the iterator yields fresh arrays: mutating one must not corrupt
     later elements *)
  let seq = Dls.Brute.permutations_seq 3 in
  (match seq () with
  | Seq.Cons (first, _) -> Array.fill first 0 3 99
  | Seq.Nil -> Alcotest.fail "empty sequence");
  let again = List.of_seq seq in
  Alcotest.(check bool)
    "re-traversal unaffected by mutation" true
    (again = Dls.Brute.permutations 3)

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let gen_scenario =
  let open QCheck2.Gen in
  let* p = gen_platform ~min_size:1 ~max_size:5 () in
  let n = Dls.Platform.size p in
  let* seed1 = int_range 0 10000 in
  let* seed2 = int_range 0 10000 in
  let shuffle seed =
    let a = Array.init n Fun.id in
    let state = ref (seed + 1) in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    for i = n - 1 downto 1 do
      let j = next (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  return (Dls.Scenario.make_exn p ~sigma1:(shuffle seed1) ~sigma2:(shuffle seed2))

let prop_schedule_valid =
  prop ~count:120 "LP schedules satisfy every one-port invariant" gen_scenario
    (fun s ->
      let sol = Dls.Solve.solve_exn ~mode:`Exact s in
      let sched = Dls.Schedule.of_solved sol in
      match Dls.Schedule.validate sched with
      | Ok () ->
        Q.equal (Dls.Schedule.total_load sched) sol.Dls.Lp_model.rho
        && Q.equal (Dls.Schedule.makespan sched) Q.one
      | Error msgs -> QCheck2.Test.fail_reportf "%s" (String.concat "; " msgs))

let prop_schedule_scaling =
  prop ~count:60 "for_load scales makespan and load linearly" gen_scenario
    (fun s ->
      let sol = Dls.Solve.solve_exn ~mode:`Exact s in
      let load = q 1000 in
      let sched = Dls.Schedule.for_load sol ~load in
      Q.equal (Dls.Schedule.total_load sched) load
      && Q.equal (Dls.Schedule.makespan sched)
           (load // sol.Dls.Lp_model.rho)
      && Dls.Schedule.validate sched = Ok ())

let test_schedule_mirror_roundtrip () =
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let sched = Dls.Schedule.of_solved sol in
  let mirrored = Dls.Schedule.mirror sched in
  (match Dls.Schedule.validate mirrored with
  | Ok () -> ()
  | Error msgs -> Alcotest.fail (String.concat "; " msgs));
  let back = Dls.Schedule.mirror mirrored in
  Alcotest.check rat "load preserved" (Dls.Schedule.total_load sched)
    (Dls.Schedule.total_load back)

(* ------------------------------------------------------------------ *)
(* Rounding                                                            *)
(* ------------------------------------------------------------------ *)

let test_rounding_paper_example () =
  (* Section 5: alpha = (200.4, 300.2, 139.8, 359.6), M = 1000
     -> (201, 301, 139, 359). *)
  let weights = [| qq 1002 5; qq 1501 5; qq 699 5; qq 1798 5 |] in
  let loads =
    Dls.Rounding.share_out ~weights ~order:[| 0; 1; 2; 3 |] ~total:1000
  in
  Alcotest.(check (array int)) "paper example" [| 201; 301; 139; 359 |] loads

let test_rounding_zero_total () =
  let loads =
    Dls.Rounding.share_out ~weights:[| Q.one; Q.two |] ~order:[| 0; 1 |] ~total:0
  in
  Alcotest.(check (array int)) "all zero" [| 0; 0 |] loads

let test_rounding_all_on_one_worker () =
  (* All the weight on one worker: it takes everything, the zero-weight
     workers get none of the leftovers either. *)
  let loads =
    Dls.Rounding.share_out
      ~weights:[| Q.zero; qq 7 3; Q.zero |]
      ~order:[| 2; 1; 0 |] ~total:7
  in
  Alcotest.(check (array int)) "single carrier" [| 0; 7; 0 |] loads

let test_rounding_leftovers_cycle_in_order () =
  (* Three equal weights, total 2: every floor is 0, K = 2 leftovers go
     one each to the first two POSITIVE-weight entries of [order] —
     order decides, not index. *)
  let w = qq 1 3 in
  let loads =
    Dls.Rounding.share_out ~weights:[| w; w; w |] ~order:[| 2; 0; 1 |] ~total:2
  in
  Alcotest.(check (array int)) "order-directed leftovers" [| 1; 0; 1 |] loads;
  (* Zero-weight entries are skipped when cycling. *)
  let loads =
    Dls.Rounding.share_out
      ~weights:[| Q.zero; w; w |]
      ~order:[| 0; 1; 2 |] ~total:3
  in
  Alcotest.(check (array int)) "zero-weight skipped" [| 0; 2; 1 |] loads

let test_rounding_guard_when_leftovers_exceed_entries () =
  (* K > positive entries is impossible for genuine floors (each of the
     [p] floors loses strictly less than one item, so K <= p - 1); the
     cycling guard in [share_out] is for defense in depth.  Exercise the
     largest reachable leftover count, K = p - 1. *)
  let w = qq 1 2 in
  let loads =
    Dls.Rounding.share_out ~weights:[| w; w |] ~order:[| 1; 0 |] ~total:3
  in
  (* exact = (3/2, 3/2): floors (1, 1), K = 1 -> first in order. *)
  Alcotest.(check (array int)) "boundary leftover" [| 1; 2 |] loads;
  Alcotest.(check int) "conserved" 3 (Array.fold_left ( + ) 0 loads)

let test_rounding_rejects_bad_input () =
  Alcotest.check_raises "negative total"
    (Invalid_argument "Rounding: negative total") (fun () ->
      ignore
        (Dls.Rounding.share_out ~weights:[| Q.one |] ~order:[| 0 |] ~total:(-1)));
  Alcotest.check_raises "all weights zero"
    (Invalid_argument "Rounding: all weights zero") (fun () ->
      ignore
        (Dls.Rounding.share_out ~weights:[| Q.zero; Q.zero |] ~order:[| 0; 1 |]
           ~total:5));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Rounding: negative weight") (fun () ->
      ignore
        (Dls.Rounding.share_out ~weights:[| Q.minus_one |] ~order:[| 0 |] ~total:5))

let prop_rounding_conserves =
  prop ~count:100 "rounded loads sum to the total"
    (QCheck2.Gen.pair (gen_platform ~min_size:1 ~max_size:6 ())
       (QCheck2.Gen.int_range 0 5000))
    (fun (p, total) ->
      let sol = Dls.Fifo.optimal p in
      let loads = Dls.Rounding.integer_loads sol ~total in
      Array.fold_left ( + ) 0 loads = total
      && Dls.Rounding.imbalance sol ~total <=/ Q.one)

let prop_rounding_respects_selection =
  prop ~count:80 "workers with zero load stay at zero"
    (gen_platform ~min_size:2 ~max_size:5 ())
    (fun p ->
      let sol = Dls.Fifo.optimal p in
      let loads = Dls.Rounding.integer_loads sol ~total:997 in
      Array.for_all2
        (fun l a -> Q.sign a > 0 || l = 0)
        loads sol.Dls.Lp_model.alpha)

(* ------------------------------------------------------------------ *)
(* No-return baseline (classical DLT results)                          *)
(* ------------------------------------------------------------------ *)

let test_no_return_single () =
  (* One worker: alpha = 1/(c+w). *)
  let p = Dls.Platform.make_exn [ worker (2, 1) (3, 1) (0, 1) ] in
  Alcotest.check rat "1/(c+w)" (qq 1 5) (Dls.No_return.throughput p)

let test_no_return_recursion () =
  (* Two identical workers, c = w = 1: alpha1 = 1/2, alpha2 = 1/4. *)
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (1, 1) (0, 1); worker (1, 1) (1, 1) (0, 1) ]
  in
  let alpha = Dls.No_return.loads p ~order:[| 0; 1 |] in
  Alcotest.check rat "alpha1" Q.half alpha.(0);
  Alcotest.check rat "alpha2" (qq 1 4) alpha.(1);
  Alcotest.check rat "rho" (qq 3 4) (Dls.No_return.throughput p)

let prop_no_return_matches_lp =
  prop ~count:60 "no-return closed form = scenario LP with d = 0"
    (gen_platform ~min_size:1 ~max_size:6 ())
    (fun p ->
      let p = Dls.No_return.strip_returns p in
      let formula = Dls.No_return.throughput p in
      let lp =
        Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p (Dls.No_return.optimal_order p))
      in
      Q.equal formula lp.Dls.Lp_model.rho)

let prop_no_return_bandwidth_order_optimal =
  prop ~count:30 "no-return: bandwidth-first beats every order (brute force)"
    (gen_platform ~min_size:2 ~max_size:4 ())
    (fun p ->
      let p = Dls.No_return.strip_returns p in
      let brute = Dls.Brute.best_fifo p in
      Q.equal brute.Dls.Lp_model.rho (Dls.No_return.throughput p))

let prop_no_return_all_participate =
  prop ~count:40 "no-return: every worker gets positive load"
    (gen_platform ~min_size:1 ~max_size:8 ())
    (fun p ->
      let alpha = Dls.No_return.loads p ~order:(Dls.No_return.optimal_order p) in
      Array.for_all (fun a -> Q.sign a > 0) alpha)

let prop_returns_only_hurt =
  prop ~count:40 "adding return messages can only reduce throughput"
    (gen_platform ~min_size:1 ~max_size:5 ())
    (fun p ->
      let with_returns = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
      let without = Dls.No_return.throughput (Dls.No_return.strip_returns p) in
      with_returns <=/ without)

(* ------------------------------------------------------------------ *)
(* Affine extension                                                    *)
(* ------------------------------------------------------------------ *)

let affine_rho = function
  | Dls.Affine.Solved s -> s.Dls.Affine.rho
  | Dls.Affine.Too_slow -> Alcotest.fail "unexpectedly Too_slow"

let test_affine_zero_latency_matches_linear () =
  let p = two_worker_platform () in
  let a = Dls.Affine.of_platform p in
  let order = [| 0; 1 |] in
  let affine = affine_rho (Dls.Affine.solve a ~sigma1:order ~sigma2:order) in
  let linear = (Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p order)).Dls.Lp_model.rho in
  Alcotest.check rat "same rho" linear affine

let test_affine_too_slow () =
  let p = Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2) ] in
  let a = Dls.Affine.of_platform ~send_latency:(q 2) p in
  (match Dls.Affine.solve a ~sigma1:[| 0 |] ~sigma2:[| 0 |] with
  | Dls.Affine.Too_slow -> ()
  | Dls.Affine.Solved _ -> Alcotest.fail "latency 2 > deadline 1 accepted");
  match Dls.Affine.best_fifo a with
  | Dls.Affine.Too_slow -> ()
  | Dls.Affine.Solved _ -> Alcotest.fail "best_fifo should be Too_slow"

let test_affine_latency_forces_selection () =
  (* Without latency both workers help; a large start-up cost on the
     second message makes a single-worker schedule optimal. *)
  let p = two_worker_platform () in
  let expensive =
    Dls.Affine.make
      [
        Dls.Affine.worker (Dls.Platform.get p 0);
        Dls.Affine.worker ~send_latency:(qq 9 10) (Dls.Platform.get p 1);
      ]
  in
  match Dls.Affine.best_fifo expensive with
  | Dls.Affine.Too_slow -> Alcotest.fail "feasible schedules exist"
  | Dls.Affine.Solved s ->
    Alcotest.(check int) "only one worker" 1 (Array.length s.Dls.Affine.sigma1);
    (* worker 1 alone: rho = 1/(c+w+d) = 2/5 *)
    Alcotest.check rat "P1 alone" (qq 2 5) s.Dls.Affine.rho

let prop_affine_zero_latency_best =
  prop ~count:25 "affine best_fifo with zero latencies = linear brute force"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:3 ())
    (fun p ->
      let a = Dls.Affine.of_platform p in
      Q.equal
        (affine_rho (Dls.Affine.best_fifo a))
        (Dls.Brute.best_fifo p).Dls.Lp_model.rho)

let prop_affine_latency_monotone =
  prop ~count:30 "latencies only reduce throughput"
    (QCheck2.Gen.pair
       (gen_platform ~min_size:1 ~max_size:3 ())
       (QCheck2.Gen.int_range 1 20))
    (fun (p, lat) ->
      let latency = qq lat 100 in
      let free = affine_rho (Dls.Affine.best_fifo (Dls.Affine.of_platform p)) in
      match
        Dls.Affine.best_fifo
          (Dls.Affine.of_platform ~send_latency:latency ~return_latency:latency p)
      with
      | Dls.Affine.Too_slow -> true
      | Dls.Affine.Solved s -> s.Dls.Affine.rho <=/ free)

let prop_affine_general_at_least_fifo =
  prop ~count:10 "affine general search >= FIFO search"
    (gen_platform ~min_size:2 ~max_size:3 ())
    (fun p ->
      let a = Dls.Affine.of_platform ~send_latency:(qq 1 20) p in
      match (Dls.Affine.best_fifo a, Dls.Affine.best_general a) with
      | Dls.Affine.Too_slow, Dls.Affine.Too_slow -> true
      | Dls.Affine.Too_slow, Dls.Affine.Solved _ -> true
      | Dls.Affine.Solved _, Dls.Affine.Too_slow -> false
      | Dls.Affine.Solved f, Dls.Affine.Solved g ->
        g.Dls.Affine.rho >=/ f.Dls.Affine.rho)

(* ------------------------------------------------------------------ *)
(* Tree networks (no-return baseline)                                  *)
(* ------------------------------------------------------------------ *)

let gen_tree =
  let open QCheck2.Gen in
  let rec build depth =
    if depth = 0 then map (fun w -> Dls.Tree.leaf w) gen_pos_rational
    else
      let* n_children = int_range 0 3 in
      if n_children = 0 then map (fun w -> Dls.Tree.leaf w) gen_pos_rational
      else
        let* children =
          list_size (return n_children) (pair gen_pos_rational (build (depth - 1)))
        in
        let* own = option gen_pos_rational in
        return
          (match own with
          | Some w -> Dls.Tree.node ~w children
          | None -> Dls.Tree.node children)
  in
  let* n_top = int_range 1 3 in
  let* top = list_size (return n_top) (pair gen_pos_rational (build 2)) in
  return (Dls.Tree.root top)

let test_tree_flat_equals_star () =
  let specs = [ (qq 1 2, q 1); (q 1, q 2); (q 2, qq 1 3) ] in
  let tree = Dls.Tree.root (List.map (fun (c, w) -> (c, Dls.Tree.leaf w)) specs) in
  let star =
    Dls.Platform.make_exn
      (List.map (fun (c, w) -> Dls.Platform.worker ~c ~w ~d:Q.zero ()) specs)
  in
  Alcotest.check rat "flat tree = star" (Dls.No_return.throughput star)
    (Dls.Tree.throughput tree)

let test_tree_single_chain () =
  (* root -1-> leaf(w=2): rho = 1/3 *)
  let tree = Dls.Tree.root [ (q 1, Dls.Tree.leaf (q 2)) ] in
  Alcotest.check rat "chain" (qq 1 3) (Dls.Tree.throughput tree)

let test_tree_relay_chain () =
  (* root -1-> relay -1-> leaf(w=1): store-and-forward, rho = 1/3 *)
  let tree =
    Dls.Tree.root [ (q 1, Dls.Tree.node [ (q 1, Dls.Tree.leaf (q 1)) ]) ]
  in
  Alcotest.check rat "relay chain" (qq 1 3) (Dls.Tree.throughput tree)

let test_tree_computing_internal_node () =
  (* root -1-> node(w=1){ -1-> leaf(w=1) }:
     node as worker: 1/w + 1/(c+w) = 3/2, w_eq = 2/3, rho = 1/(1+2/3) = 3/5. *)
  let tree =
    Dls.Tree.root
      [ (q 1, Dls.Tree.node ~w:(q 1) [ (q 1, Dls.Tree.leaf (q 1)) ]) ]
  in
  Alcotest.check rat "computing internal" (qq 3 5) (Dls.Tree.throughput tree)

let test_tree_equivalent_leaf () =
  Alcotest.check rat "leaf equivalent" (q 7) (Dls.Tree.equivalent_w (Dls.Tree.leaf (q 7)))

let test_tree_constructors () =
  (try
     ignore (Dls.Tree.leaf Q.zero);
     Alcotest.fail "leaf w=0 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Dls.Tree.node []);
     Alcotest.fail "childless relay accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Dls.Tree.node [ (Q.zero, Dls.Tree.leaf Q.one) ]);
    Alcotest.fail "zero link cost accepted"
  with Invalid_argument _ -> ()

let prop_tree_validates =
  prop ~count:80 "tree schedules pass the operational validator" gen_tree
    (fun tree ->
      match Dls.Tree.validate tree with
      | Ok () -> true
      | Error msgs -> QCheck2.Test.fail_reportf "%s" (String.concat "; " msgs))

let prop_tree_load_conservation =
  prop ~count:60 "tree: computed loads sum to the throughput" gen_tree
    (fun tree ->
      let total =
        Q.sum (List.map (fun a -> a.Dls.Tree.load) (Dls.Tree.schedule tree))
      in
      Q.equal total (Dls.Tree.throughput tree))

let prop_tree_extra_leaf_helps =
  prop ~count:50 "tree: adding a worker never hurts"
    (QCheck2.Gen.pair gen_tree (QCheck2.Gen.pair gen_pos_rational gen_pos_rational))
    (fun (tree, (c, w)) ->
      let bigger =
        Dls.Tree.node ~name:(Printf.sprintf "root+%d" (Dls.Tree.size tree))
          ((c, Dls.Tree.leaf w) :: tree.Dls.Tree.children)
      in
      Dls.Tree.throughput bigger >=/ Dls.Tree.throughput tree)

let prop_tree_relay_costs =
  prop ~count:50 "tree: inserting a relay never helps"
    (QCheck2.Gen.pair gen_pos_rational (QCheck2.Gen.pair gen_pos_rational gen_pos_rational))
    (fun (c_extra, (c, w)) ->
      let direct = Dls.Tree.root [ (c, Dls.Tree.leaf w) ] in
      let relayed =
        Dls.Tree.root [ (c, Dls.Tree.node [ (c_extra, Dls.Tree.leaf w) ]) ]
      in
      Dls.Tree.throughput relayed <=/ Dls.Tree.throughput direct)

(* ------------------------------------------------------------------ *)
(* Analytic bounds                                                     *)
(* ------------------------------------------------------------------ *)

let prop_bounds_sandwich_optimum =
  prop ~count:80 "analytic bounds sandwich the optimum"
    (gen_platform ~min_size:1 ~max_size:6 ())
    (fun p ->
      let rho = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
      Dls.Bounds.lower p <=/ rho && rho <=/ Dls.Bounds.upper p)

let prop_bounds_general_upper =
  prop ~count:20 "upper bound also caps arbitrary permutation pairs"
    (gen_platform ~min_size:2 ~max_size:3 ())
    (fun p ->
      (Dls.Brute.best_general p).Dls.Lp_model.rho <=/ Dls.Bounds.upper p)

let test_bounds_single_worker_tight () =
  (* One worker: all three quantities coincide with the optimum. *)
  let p = Dls.Platform.make_exn [ worker (2, 1) (3, 1) (1, 1) ] in
  let rho = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
  Alcotest.check rat "lower tight" rho (Dls.Bounds.lower p);
  Alcotest.check rat "chain tight" rho (Dls.Bounds.chain_bound p)

(* ------------------------------------------------------------------ *)
(* Small API surfaces                                                  *)
(* ------------------------------------------------------------------ *)

let test_heuristics_names () =
  Alcotest.(check (list string)) "names" [ "INC_C"; "INC_W"; "LIFO" ]
    (List.map Dls.Heuristics.name Dls.Heuristics.all)

let test_schedule_idle_times () =
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |]) in
  let sched = Dls.Schedule.of_solved sol in
  let idles = Dls.Schedule.idle_times sched in
  Alcotest.(check int) "one entry per enrolled worker" 2 (List.length idles);
  List.iter
    (fun { Dls.Schedule.idle = gap; _ } ->
      Alcotest.(check bool) "non-negative" true (Q.sign gap >= 0))
    idles

let test_schedule_scale_validation () =
  let p = two_worker_platform () in
  let sched = Dls.Schedule.of_solved (Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0; 1 |])) in
  (try
     ignore (Dls.Schedule.scale Q.zero sched);
     Alcotest.fail "zero scale accepted"
   with Invalid_argument _ -> ());
  let doubled = Dls.Schedule.scale Q.two sched in
  Alcotest.check rat "horizon doubled" Q.two (Dls.Schedule.makespan doubled);
  Alcotest.(check bool) "still valid" true (Dls.Schedule.validate doubled = Ok ())

let test_schedule_mirror_rejects_no_return () =
  let p = Dls.Platform.make_exn [ worker (1, 1) (1, 1) (0, 1) ] in
  let sched = Dls.Schedule.of_solved (Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p [| 0 |])) in
  try
    ignore (Dls.Schedule.mirror sched);
    Alcotest.fail "mirror of d=0 accepted"
  with Invalid_argument _ -> ()

let test_pp_smoke () =
  let p = two_worker_platform () in
  let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.lifo_exn p [| 0; 1 |]) in
  let s1 = Format.asprintf "%a" Dls.Platform.pp p in
  let s2 = Format.asprintf "%a" Dls.Scenario.pp sol.Dls.Lp_model.scenario in
  let s3 = Format.asprintf "%a" Dls.Lp_model.pp sol in
  let s4 = Format.asprintf "%a" Dls.Schedule.pp (Dls.Schedule.of_solved sol) in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 0))
    [ s1; s2; s3; s4 ]

let test_fifo_order_z_equal_one () =
  (* z = 1: Theorem 1 says order is irrelevant; the library picks the
     ascending-c order and must still match the brute force. *)
  let p =
    Dls.Platform.make_exn
      [ worker (2, 1) (1, 1) (2, 1); worker (1, 1) (3, 1) (1, 1) ]
  in
  let brute = Dls.Brute.best_fifo p in
  let smart = Dls.Fifo.optimal p in
  Alcotest.check rat "z=1 optimal" brute.Dls.Lp_model.rho smart.Dls.Lp_model.rho

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let prop_slowing_never_helps =
  prop ~count:50 "slowing any resource never raises the throughput"
    (let open QCheck2.Gen in
     let* p = gen_small_z >>= fun z -> gen_platform ~z ~min_size:1 ~max_size:5 () in
     let* target = int_range 0 (Dls.Platform.size p - 1) in
     let* comm = bool in
     let* slow_num = int_range 11 30 in
     return (p, (if comm then Dls.Sensitivity.Comm target else Dls.Sensitivity.Comp target), qq slow_num 10))
    (fun (p, param, factor) ->
      Q.sign (Dls.Sensitivity.throughput_delta p param ~factor) <= 0)

let prop_speeding_never_hurts =
  prop ~count:50 "speeding any resource never lowers the throughput"
    (let open QCheck2.Gen in
     let* p = gen_small_z >>= fun z -> gen_platform ~z ~min_size:1 ~max_size:5 () in
     let* target = int_range 0 (Dls.Platform.size p - 1) in
     let* comm = bool in
     let* fast_den = int_range 11 30 in
     return (p, (if comm then Dls.Sensitivity.Comm target else Dls.Sensitivity.Comp target), qq 10 fast_den))
    (fun (p, param, factor) ->
      Q.sign (Dls.Sensitivity.throughput_delta p param ~factor) >= 0)

let test_sensitivity_dropped_worker_is_flat () =
  (* Slowing the compute of a worker that resource selection already
     dropped changes nothing. *)
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (100, 1) (1, 1) (50, 1) ]
  in
  let sol = Dls.Fifo.optimal p in
  Alcotest.check rat "worker 2 dropped" Q.zero sol.Dls.Lp_model.alpha.(1);
  Alcotest.check rat "no effect" Q.zero
    (Dls.Sensitivity.throughput_delta p (Dls.Sensitivity.Comp 1) ~factor:(q 5))

let test_sensitivity_table_shape () =
  let p = two_worker_platform () in
  let entries = Dls.Sensitivity.table p ~factor:(qq 11 10) in
  Alcotest.(check int) "2 workers x 2 params" 4 (List.length entries);
  List.iter
    (fun (param, rel) ->
      if Q.sign rel > 0 then
        Alcotest.failf "slowdown helped via %s"
          (Dls.Sensitivity.parameter_to_string p param))
    entries

let test_sensitivity_perturb_validation () =
  let p = two_worker_platform () in
  (try
     ignore (Dls.Sensitivity.perturb p (Dls.Sensitivity.Comm 5) ~factor:Q.one);
     Alcotest.fail "out-of-range worker accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Dls.Sensitivity.perturb p (Dls.Sensitivity.Comm 0) ~factor:Q.zero);
    Alcotest.fail "zero factor accepted"
  with Invalid_argument _ -> ()

let test_sensitivity_preserves_z () =
  let p = two_worker_platform () in
  let p' = Dls.Sensitivity.perturb p (Dls.Sensitivity.Comm 0) ~factor:(q 3) in
  Alcotest.(check (option rat)) "z preserved" (Some Q.half) (Dls.Platform.z_ratio p')

(* ------------------------------------------------------------------ *)
(* Deltas                                                              *)
(* ------------------------------------------------------------------ *)

let test_delta_apply () =
  let p = two_worker_platform () in
  let d =
    [
      Dls.Delta.Scale_comm { worker = 0; factor = q 2 };
      Dls.Delta.Scale_comp { worker = 1; factor = Q.half };
    ]
  in
  Alcotest.(check bool) "shape preserved" true (Dls.Delta.preserves_shape d);
  let p' = Dls.Delta.apply_exn p d in
  let w0 = Dls.Platform.get p 0 and w0' = Dls.Platform.get p' 0 in
  Alcotest.(check rat) "c scaled" (Q.mul (q 2) w0.Dls.Platform.c) w0'.Dls.Platform.c;
  Alcotest.(check rat) "d scaled with c" (Q.mul (q 2) w0.Dls.Platform.d)
    w0'.Dls.Platform.d;
  Alcotest.(check (option rat)) "uniform z preserved by comm scaling"
    (Dls.Platform.z_ratio p) (Dls.Platform.z_ratio p');
  let w1 = Dls.Platform.get p 1 and w1' = Dls.Platform.get p' 1 in
  Alcotest.(check rat) "w scaled" (Q.mul Q.half w1.Dls.Platform.w)
    w1'.Dls.Platform.w;
  Alcotest.(check rat) "other fields untouched" w1.Dls.Platform.c
    w1'.Dls.Platform.c;
  (* add/remove change the shape and are rejected by [preserves_shape] *)
  let grow = [ Dls.Delta.Add_worker (Dls.Platform.worker ~c:(q 1) ~w:(q 2) ~d:Q.half ()) ] in
  Alcotest.(check bool) "add changes shape" false (Dls.Delta.preserves_shape grow);
  Alcotest.(check int) "worker appended" 3
    (Dls.Platform.size (Dls.Delta.apply_exn p grow));
  Alcotest.(check int) "worker removed" 1
    (Dls.Platform.size (Dls.Delta.apply_exn p [ Dls.Delta.Remove_worker 0 ]))

let test_delta_apply_rejects () =
  let p = two_worker_platform () in
  let rejects label d =
    match Dls.Delta.apply p d with
    | Error (Dls.Errors.Invalid_scenario _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" label (Dls.Errors.to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" label
  in
  rejects "out-of-range worker"
    [ Dls.Delta.Scale_comm { worker = 9; factor = q 2 } ];
  rejects "zero factor" [ Dls.Delta.Scale_comp { worker = 0; factor = Q.zero } ];
  rejects "negative z" [ Dls.Delta.Set_z (q (-1)) ];
  rejects "removing the last worker"
    [ Dls.Delta.Remove_worker 0; Dls.Delta.Remove_worker 0 ]

let test_delta_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Dls.Delta.of_spec ~line:1 ~col:1 spec with
      | Error e -> Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e)
      | Ok d ->
        Alcotest.(check string)
          (Printf.sprintf "canonical %S" spec)
          spec (Dls.Delta.to_spec d))
    [ "comm:1:5/4"; "comp:2:1/2"; "z:3/2"; "add:1:2:1/2"; "drop:3";
      "comm:1:5/4,z:2,drop:1" ]

let test_delta_spec_errors () =
  List.iter
    (fun (spec, expect_col) ->
      match Dls.Delta.of_spec ~line:1 ~col:1 spec with
      | Ok _ -> Alcotest.failf "spec %S: expected a parse error" spec
      | Error (Dls.Errors.Parse_error { col; _ }) ->
        Alcotest.(check int) (Printf.sprintf "col of %S" spec) expect_col col
      | Error e -> Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e))
    [
      ("", 1);
      ("comm:1", 1);  (* too few fields: blamed on the change *)
      ("comm:0:2", 6);  (* 1-based index *)
      ("comm:1:x", 8);
      ("z:", 3);  (* stray ':' *)
      ("comm:1:2,", 10);  (* stray ',' *)
      ("frob:1:2", 1);
    ]

let test_delta_scenario_keeps_order () =
  (* A shape-preserving delta keeps the scenario's permutations; a
     shape-changing one rebuilds the enrollment FIFO. *)
  let p = two_worker_platform () in
  let s = Dls.Scenario.fifo_exn p [| 1; 0 |] in
  let s' =
    Dls.Delta.apply_scenario_exn s
      [ Dls.Delta.Scale_comp { worker = 0; factor = q 2 } ]
  in
  Alcotest.(check bool) "sigma1 kept" true (s'.Dls.Scenario.sigma1 = [| 1; 0 |]);
  let s'' = Dls.Delta.apply_scenario_exn s [ Dls.Delta.Remove_worker 1 ] in
  Alcotest.(check bool) "rebuilt for the new size" true
    (s''.Dls.Scenario.sigma1 = [| 0 |])

let test_sensitivity_to_delta () =
  (* [Sensitivity.perturb] is the single-change special case of
     [Delta.apply]. *)
  let p = two_worker_platform () in
  let factor = qq 11 10 in
  List.iter
    (fun param ->
      let via_delta =
        Dls.Delta.apply_exn p [ Dls.Sensitivity.to_delta param ~factor ]
      in
      let direct = Dls.Sensitivity.perturb p param ~factor in
      Alcotest.(check string) "same platform"
        (Dls.Platform_io.to_string direct)
        (Dls.Platform_io.to_string via_delta))
    [ Dls.Sensitivity.Comm 0; Dls.Sensitivity.Comp 1 ]

let test_scenario_key_distance () =
  let p = two_worker_platform () in
  let key s = Dls.Lp_model.scenario_key Dls.Lp_model.One_port s
  and fifo pl = Dls.Scenario.fifo_exn pl [| 0; 1 |] in
  let k = key (fifo p) in
  Alcotest.(check (option int)) "self distance 0" (Some 0)
    (Dls.Lp_model.scenario_key_distance k k);
  let p1 =
    Dls.Delta.apply_exn p [ Dls.Delta.Scale_comp { worker = 0; factor = q 2 } ]
  in
  Alcotest.(check (option int)) "one nudged worker = distance 1" (Some 1)
    (Dls.Lp_model.scenario_key_distance k (key (fifo p1)));
  let p2 = Dls.Delta.apply_exn p1 [ Dls.Delta.Scale_comp { worker = 1; factor = q 2 } ] in
  Alcotest.(check (option int)) "two nudged workers = distance 2" (Some 2)
    (Dls.Lp_model.scenario_key_distance k (key (fifo p2)));
  (* different permutation: incomparable *)
  let swapped = Dls.Scenario.fifo_exn p [| 1; 0 |] in
  Alcotest.(check (option int)) "permutation differs -> incomparable" None
    (Dls.Lp_model.scenario_key_distance k (key swapped));
  (* different worker count: incomparable *)
  let p3 = Dls.Delta.apply_exn p [ Dls.Delta.Remove_worker 1 ] in
  Alcotest.(check (option int)) "size differs -> incomparable" None
    (Dls.Lp_model.scenario_key_distance k
       (key (Dls.Scenario.fifo_exn p3 [| 0 |])))

(* ------------------------------------------------------------------ *)
(* Platform and tree text formats                                      *)
(* ------------------------------------------------------------------ *)

let test_platform_io_roundtrip () =
  let p = two_worker_platform () in
  match Dls.Platform_io.of_string (Dls.Platform_io.to_string p) with
  | Error e -> Alcotest.fail (Dls.Errors.to_string e)
  | Ok p' ->
    Alcotest.(check int) "size" (Dls.Platform.size p) (Dls.Platform.size p');
    for i = 0 to Dls.Platform.size p - 1 do
      let a = Dls.Platform.get p i and b = Dls.Platform.get p' i in
      Alcotest.check rat "c" a.Dls.Platform.c b.Dls.Platform.c;
      Alcotest.check rat "w" a.Dls.Platform.w b.Dls.Platform.w;
      Alcotest.check rat "d" a.Dls.Platform.d b.Dls.Platform.d
    done

let test_platform_io_comments () =
  let text = "# header\n\nP1 1 2 1/2  # trailing comment\n" in
  match Dls.Platform_io.of_string text with
  | Error e -> Alcotest.fail (Dls.Errors.to_string e)
  | Ok p ->
    Alcotest.(check int) "one worker" 1 (Dls.Platform.size p);
    Alcotest.check rat "w" Q.two (Dls.Platform.get p 0).Dls.Platform.w

let test_platform_io_errors () =
  List.iter
    (fun text ->
      match Dls.Platform_io.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "# only comments\n"; "P1 1 2\n"; "P1 1 x 2\n"; "P1 0 1 1\n" ]

let test_tree_syntax_roundtrip () =
  let text = "(node (1 (leaf 2)) (1/2 (node 3 (2 (leaf 1)))) (2 (relay (1 (leaf 1/2)))))" in
  match Dls.Tree_syntax.of_string text with
  | Error e -> Alcotest.fail e
  | Ok tree -> (
    let printed = Dls.Tree_syntax.to_string tree in
    match Dls.Tree_syntax.of_string printed with
    | Error e -> Alcotest.fail ("reparse: " ^ e)
    | Ok tree' ->
      Alcotest.check rat "same throughput" (Dls.Tree.throughput tree)
        (Dls.Tree.throughput tree');
      Alcotest.(check int) "same size" (Dls.Tree.size tree) (Dls.Tree.size tree'))

let test_tree_syntax_comments_and_errors () =
  (match Dls.Tree_syntax.of_string "; comment\n(node (1 (leaf 2)))" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun text ->
      match Dls.Tree_syntax.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "";
      "(leaf)";
      "(leaf 0)";
      "(node (1 (leaf 2)) trailing";
      "(node (0 (leaf 1)))";
      "(frob (1 (leaf 1)))";
      "(node (1 (leaf 2))) extra";
    ]

(* ------------------------------------------------------------------ *)
(* Branch-and-bound FIFO search                                        *)
(* ------------------------------------------------------------------ *)

(* Platforms with fully independent (c, w, d): outside Theorem 1's
   uniform-ratio hypothesis, where only search can certify optimality. *)
let gen_wild_platform ~min_size ~max_size =
  let open QCheck2.Gen in
  let* n = int_range min_size max_size in
  let* specs =
    list_size (return n) (triple gen_pos_rational gen_pos_rational gen_pos_rational)
  in
  return
    (Dls.Platform.make_exn
       (List.map
          (fun (c, w, d) -> Dls.Platform.worker ~c ~w ~d ())
          specs))

let prop_search_matches_brute =
  prop ~count:40 "B&B search = brute force (non-uniform z)"
    (gen_wild_platform ~min_size:2 ~max_size:4)
    (fun p ->
      let brute = Dls.Brute.best_fifo p in
      let { Dls.Search.solved = found; stats } = Dls.Search.best_fifo p in
      Q.equal brute.Dls.Lp_model.rho found.Dls.Lp_model.rho
      && stats.Dls.Search.pruned <= stats.Dls.Search.nodes
      && stats.Dls.Search.lps >= 1)

let prop_search_never_below_heuristic =
  prop ~count:40 "B&B search >= Theorem 1 heuristic order"
    (gen_wild_platform ~min_size:1 ~max_size:5)
    (fun p ->
      let heuristic = Dls.Fifo.optimal p in
      let found = (Dls.Search.best_fifo p).Dls.Search.solved in
      found.Dls.Lp_model.rho >=/ heuristic.Dls.Lp_model.rho)

let prop_search_proves_theorem1 =
  prop ~count:30 "B&B search confirms Theorem 1 on uniform-z platforms"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:5 ())
    (fun p ->
      let found = (Dls.Search.best_fifo p).Dls.Search.solved in
      Q.equal found.Dls.Lp_model.rho (Dls.Fifo.optimal p).Dls.Lp_model.rho)

let prop_search_lifo_matches_brute =
  prop ~count:30 "B&B LIFO search = brute force (non-uniform z)"
    (gen_wild_platform ~min_size:2 ~max_size:4)
    (fun p ->
      let brute = Dls.Brute.best_lifo p in
      let found = (Dls.Search.best_lifo p).Dls.Search.solved in
      Q.equal brute.Dls.Lp_model.rho found.Dls.Lp_model.rho)

let prop_search_lifo_confirms_order =
  prop ~count:25 "B&B LIFO confirms ascending-c order (z < 1)"
    QCheck2.Gen.(gen_small_z >>= fun z -> gen_platform ~z ~min_size:2 ~max_size:5 ())
    (fun p ->
      let found = (Dls.Search.best_lifo p).Dls.Search.solved in
      Q.equal found.Dls.Lp_model.rho (Dls.Lifo.optimal p).Dls.Lp_model.rho)

let test_search_two_port () =
  let p = two_worker_platform () in
  let found = (Dls.Search.best_fifo ~model:Dls.Lp_model.Two_port p).Dls.Search.solved in
  let brute = Dls.Brute.best_fifo ~model:Dls.Lp_model.Two_port p in
  Alcotest.check rat "two-port agrees" brute.Dls.Lp_model.rho found.Dls.Lp_model.rho

(* ------------------------------------------------------------------ *)
(* Multi-round extension                                               *)
(* ------------------------------------------------------------------ *)

let multiround_rho = function
  | Dls.Multiround.Solved s -> s.Dls.Multiround.rho
  | Dls.Multiround.Too_slow -> Alcotest.fail "unexpectedly Too_slow"

let test_multiround_one_round_equals_scenario_lp () =
  let p = two_worker_platform () in
  let order = [| 0; 1 |] in
  let single =
    multiround_rho
      (Dls.Multiround.solve p (Dls.Multiround.config ~rounds:1 order))
  in
  Alcotest.check rat "R=1 = paper LP" (qq 6 11) single

let test_multiround_no_returns_one_round () =
  let p =
    Dls.Platform.make_exn [ worker (1, 1) (1, 1) (0, 1); worker (1, 1) (1, 1) (0, 1) ]
  in
  let rho =
    multiround_rho
      (Dls.Multiround.solve p
         (Dls.Multiround.config ~with_returns:false ~rounds:1 [| 0; 1 |]))
  in
  Alcotest.check rat "matches closed form" (qq 3 4) rho

let test_multiround_too_slow () =
  let p = Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2) ] in
  match
    Dls.Multiround.solve p
      (Dls.Multiround.config ~send_latency:(q 1) ~rounds:2 [| 0 |])
  with
  | Dls.Multiround.Too_slow -> ()
  | Dls.Multiround.Solved _ -> Alcotest.fail "two send latencies exceed T"

let test_multiround_validation () =
  (try
     ignore (Dls.Multiround.config ~rounds:0 [| 0 |]);
     Alcotest.fail "rounds = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Dls.Multiround.config ~rounds:1 [||]);
    Alcotest.fail "empty order accepted"
  with Invalid_argument _ -> ()

let prop_multiround_one_round_matches_lp =
  prop ~count:40 "multiround R=1 = scenario LP (any platform)"
    (gen_platform ~min_size:1 ~max_size:5 ())
    (fun p ->
      let order = Dls.Fifo.order p in
      let lp = Dls.Fifo.solve_order p order in
      let mr =
        multiround_rho (Dls.Multiround.solve p (Dls.Multiround.config ~rounds:1 order))
      in
      Q.equal lp.Dls.Lp_model.rho mr)

let prop_multiround_monotone_in_rounds =
  prop ~count:25 "linear model: more rounds never hurt"
    (QCheck2.Gen.pair
       (gen_platform ~min_size:1 ~max_size:3 ())
       (QCheck2.Gen.int_range 1 3))
    (fun (p, r) ->
      let order = Dls.Fifo.order p in
      let rho rounds =
        multiround_rho (Dls.Multiround.solve p (Dls.Multiround.config ~rounds order))
      in
      rho (r + 1) >=/ rho r)

let prop_multiround_totals_consistent =
  prop ~count:25 "chunk totals equal per-worker loads"
    (gen_platform ~min_size:1 ~max_size:4 ())
    (fun p ->
      let order = Dls.Fifo.order p in
      match Dls.Multiround.solve p (Dls.Multiround.config ~rounds:3 order) with
      | Dls.Multiround.Too_slow -> false
      | Dls.Multiround.Solved s ->
        Q.equal (Q.sum_array s.Dls.Multiround.alpha) s.Dls.Multiround.rho
        && Array.for_all
             (fun per_round -> Array.for_all (fun a -> Q.sign a >= 0) per_round)
             s.Dls.Multiround.chunks)

let test_multiround_latency_finite_optimum () =
  (* With per-message latencies the best round count is finite: the
     throughput first rises with pipelining, then falls as latencies
     accumulate. *)
  let p =
    Dls.Platform.make_exn
      [ worker (1, 4) (2, 1) (1, 8); worker (1, 4) (2, 1) (1, 8) ]
  in
  let sweep =
    Dls.Multiround.sweep_rounds p ~send_latency:(qq 1 25) ~return_latency:(qq 1 25)
      ~order:[| 0; 1 |] ~max_rounds:8 ()
  in
  let rhos = List.map (fun r -> r.Dls.Multiround.throughput) sweep in
  let best = List.fold_left Q.max Q.zero rhos in
  let last = List.nth rhos (List.length rhos - 1) in
  let first = List.hd rhos in
  Alcotest.(check bool) "pipelining helps at first" true (Q.compare best first > 0);
  Alcotest.(check bool) "latencies eventually dominate" true
    (Q.compare last best < 0)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Structured FIFO/LIFO certificate                                    *)
(* ------------------------------------------------------------------ *)

module Cert = Dls.Structured_cert

(* The experiment families at p = 2..11 and z in {1/2, 1, 3/2}, plain
   and with communication or computation x10.  Homogeneous and
   hom-comm draws tie every [c]; heterogeneous draws of integer factors
   in 1..10 tie some. *)
let family_platforms () =
  let rng = Numeric.Prng.create ~seed:18 in
  List.concat_map
    (fun z ->
      List.concat_map
        (fun workers ->
          List.concat_map
            (fun sc ->
              List.map
                (fun (comm_times, comp_times) ->
                  let f =
                    Cluster.Gen.scale ~comm_times ~comp_times
                      (Cluster.Gen.factors rng sc ~workers)
                  in
                  let base = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:60 f in
                  Dls.Platform.with_return_ratio ~z
                    (List.init workers (fun k ->
                         let wk = Dls.Platform.get base k in
                         (wk.Dls.Platform.c, wk.Dls.Platform.w))))
                [ (1, 1); (10, 1); (1, 10) ])
            Cluster.Gen.[ Homogeneous; Hom_comm_het_comp; Heterogeneous ])
        (List.init 10 (fun i -> i + 2)))
    [ qq 1 2; Q.one; qq 3 2 ]

let models = Dls.Lp_model.[ One_port; Two_port ]

let scenarios p =
  [
    ("fifo", Dls.Scenario.fifo_exn p (Dls.Fifo.order p));
    ("lifo", Dls.Scenario.lifo_exn p (Dls.Lifo.order p));
  ]

let float_basis model s =
  match Simplex.Float_solver.solve (Dls.Lp_model.problem model s) with
  | Simplex.Float_solver.Optimal f -> Some f.Simplex.Float_solver.basis
  | _ -> None

let certify model s basis =
  Cert.certify ~one_port:(model = Dls.Lp_model.One_port) s ~basis

let outcome_name = function
  | Cert.Certified _ -> "certified"
  | Cert.Rejected -> "rejected"
  | Cert.Shape -> "shape"

let check_same_answer label (a : Dls.Lp_model.solved) (b : Dls.Lp_model.solved) =
  Alcotest.check rat (label ^ ": rho") a.Dls.Lp_model.rho b.Dls.Lp_model.rho;
  Alcotest.(check (array rat)) (label ^ ": alpha") a.Dls.Lp_model.alpha b.Dls.Lp_model.alpha;
  Alcotest.(check (array rat)) (label ^ ": idle") a.Dls.Lp_model.idle b.Dls.Lp_model.idle

(* Every accepted basis gives the exact simplex's answer: directly (the
   certified point), through the fast pipeline that takes this rung, and
   under the independent re-substitution certificate.  On a bus, FIFO
   answers also match Theorem 2 (and its two-port companion). *)
let test_structured_matches_exact () =
  let accepted = Hashtbl.create 4 in
  List.iteri
    (fun ip p ->
      List.iter
        (fun model ->
          List.iter
            (fun (kind, s) ->
              let label =
                Printf.sprintf "platform %d %s %s" ip kind
                  (if model = Dls.Lp_model.One_port then "1p" else "2p")
              in
              let exact = Dls.Solve.solve_exn ~mode:`Exact ~model s in
              let bases =
                exact.Dls.Lp_model.basis :: Option.to_list (float_basis model s)
              in
              List.iter
                (fun basis ->
                  match certify model s basis with
                  | Cert.Rejected | Cert.Shape -> ()
                  | Cert.Certified { solution = sol; _ } ->
                    let key = (kind, model) in
                    Hashtbl.replace accepted key
                      (1 + Option.value ~default:0 (Hashtbl.find_opt accepted key));
                    Alcotest.check rat (label ^ ": value") exact.Dls.Lp_model.rho
                      sol.Simplex.Solver.value;
                    Array.iteri
                      (fun k i ->
                        Alcotest.check rat (label ^ ": point") exact.Dls.Lp_model.alpha.(i)
                          sol.Simplex.Solver.point.(k))
                      s.Dls.Scenario.sigma1;
                    (match Simplex.Certify.check (Dls.Lp_model.problem model s) sol with
                    | Ok () -> ()
                    | Error m -> Alcotest.failf "%s: %s" label (String.concat "; " m));
                    let fast = Dls.Solve.solve_exn ~mode:`Fast ~model s in
                    check_same_answer label exact fast;
                    (match Check.Certificate.check fast with
                    | Ok () -> ()
                    | Error m -> Alcotest.failf "%s: %s" label (String.concat "; " m));
                    if kind = "fifo" && Dls.Platform.is_bus p then
                      let wk = Dls.Platform.get p 0 in
                      let ws =
                        Array.map (fun i -> (Dls.Platform.get p i).Dls.Platform.w)
                          s.Dls.Scenario.sigma1
                      in
                      let c = wk.Dls.Platform.c and d = wk.Dls.Platform.d in
                      Alcotest.check rat (label ^ ": Theorem 2")
                        (if model = Dls.Lp_model.One_port then
                           Dls.Closed_form.fifo_throughput ~c ~d ws
                         else Dls.Closed_form.two_port_throughput ~c ~d ws)
                        sol.Simplex.Solver.value)
                bases)
            (scenarios p))
        models)
    (family_platforms ());
  (* the rung must actually fire on every shape it covers *)
  List.iter
    (fun kind ->
      List.iter
        (fun model ->
          let n = Option.value ~default:0 (Hashtbl.find_opt accepted (kind, model)) in
          if n = 0 then Alcotest.failf "no %s basis certified" kind)
        models)
    [ "fifo"; "lifo" ]

(* A homogeneous bus past Theorem 2's saturation point ([rho] =
   1/(c+d)) has alternate optima: no basis is the unique optimum. *)
let test_structured_rejects_alternate_optima () =
  let p = Dls.Platform.make_exn (List.init 6 (fun _ -> worker (1, 1) (1, 1) (1, 1))) in
  let s = Dls.Scenario.fifo_exn p (Dls.Fifo.order p) in
  let exact = Dls.Solve.solve_exn ~mode:`Exact s in
  Alcotest.check rat "saturated" Q.half exact.Dls.Lp_model.rho;
  List.iter
    (fun basis ->
      match certify Dls.Lp_model.One_port s basis with
      | Cert.Certified _ -> Alcotest.fail "alternate optima certified"
      | Cert.Rejected | Cert.Shape -> ())
    (exact.Dls.Lp_model.basis :: Option.to_list (float_basis Dls.Lp_model.One_port s));
  check_same_answer "fast" exact (Dls.Solve.solve_exn ~mode:`Fast s);
  (* FIFO with d2 = c1 + w1 + d1: rho is optimal on a whole edge, under
     both models.  Leaving P2 out (alpha_1 and row 2's slack basic),
     P2's reduced cost is exactly zero; enrolling both, row 2's dual is
     exactly zero, and so is the one-port row's when it is made to
     bind (row 2's slack basic instead of the port slack).  Whether a
     zero survives the float screen as an exact 0.0 depends on how the
     doubles round, so the exact test is also asked on its own: it must
     reject each basis. *)
  List.iter
    (fun (what, c2, model, basis) ->
      let p =
        Dls.Platform.make_exn [ worker (1, 2) (1, 3) (1, 5); worker c2 (1, 1) (31, 30) ]
      in
      let s = Dls.Scenario.fifo_exn p [| 0; 1 |] in
      (match certify model s basis with
      | Cert.Rejected -> ()
      | o -> Alcotest.failf "%s: %s" what (outcome_name o));
      match Cert.read ~one_port:(model = Dls.Lp_model.One_port) s ~basis with
      | None -> Alcotest.failf "%s: not a chain" what
      | Some ch -> (
        match Cert.exact ch s ~basis with
        | Cert.Rejected -> ()
        | o -> Alcotest.failf "%s unscreened: %s" what (outcome_name o)))
    Dls.Lp_model.
      [
        ("zero reduced cost", (5, 3), Two_port, [| 0; 5 |]);
        ("zero dual", (1, 3), Two_port, [| 0; 1 |]);
        ("zero one-port dual", (5, 3), One_port, [| 0; 1; 5 |]);
      ]

(* Perturbing an accepted basis — dropping an enrolled worker for its
   row's slack, or flipping the one-port slack in or out — keeps the
   chain shape but loses optimality: the rung must reject it. *)
let test_structured_rejects_perturbed () =
  let dropped = ref 0 and flipped = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun model ->
          List.iter
            (fun (_, s) ->
              let q = Dls.Scenario.num_enrolled s in
              match float_basis model s with
              | None -> ()
              | Some basis -> (
                match certify model s basis with
                | Cert.Rejected | Cert.Shape -> ()
                | Cert.Certified _ ->
                  let enrolled = List.filter (fun j -> j < q) (Array.to_list basis) in
                  let expect_rejected what b =
                    match certify model s b with
                    | Cert.Rejected -> ()
                    | o -> Alcotest.failf "%s: %s" what (outcome_name o)
                  in
                  (* the first enrolled worker is never the one whose row
                     may be slack, so the shape stays a chain *)
                  if List.length enrolled >= 2 then begin
                    let k = List.fold_left min q enrolled in
                    incr dropped;
                    expect_rejected "dropped worker"
                      (Array.map (fun j -> if j = k then (2 * q) + k else j) basis)
                  end;
                  if model = Dls.Lp_model.One_port then begin
                    let last = List.fold_left max 0 enrolled in
                    let twin j = j = q + last || j = (2 * q) + last in
                    incr flipped;
                    expect_rejected "flipped one-port slack"
                      (if Array.mem (3 * q) basis then
                         Array.map (fun j -> if j = 3 * q then (2 * q) + last else j) basis
                       else Array.map (fun j -> if twin j then 3 * q else j) basis)
                  end))
            (scenarios p))
        models)
    (family_platforms ());
  if !dropped = 0 || !flipped = 0 then Alcotest.fail "no perturbation exercised"

(* The reference: the structured certificate's exact test on reduced
   rationals, as it ran before the integer chain.  Same chain, same
   tests, one gcd per operation; [read] and [screen] are the library's. *)
module Rational_chain = struct
  exception Reject

  let top a = Array.length a - 1
  let ( + ) = Q.add
  let ( - ) = Q.sub
  let ( * ) = Q.mul
  let ( / ) a b = if Q.is_zero b then raise Reject else Q.div a b

  let rows (ch : Cert.chain) ~c ~w ~d alpha =
    let out = Array.map (fun _ -> Q.zero) alpha in
    let acc = ref Q.zero in
    for k = 0 to top alpha do
      acc := !acc + (alpha.(k) * (if ch.fifo then c.(k) else c.(k) + d.(k)));
      out.(k) <- !acc + (alpha.(k) * w.(k))
    done;
    if ch.fifo then begin
      let acc = ref Q.zero in
      for k = top alpha downto 0 do
        acc := !acc + (alpha.(k) * d.(k));
        out.(k) <- out.(k) + !acc
      done
    end;
    out

  let primal (ch : Cert.chain) ~c ~w ~d =
    let q = Array.length c in
    let r = Array.make q Q.zero in
    let first = ref (-1) and prev = ref (-1) in
    for k = 0 to top c do
      if ch.tight.(k) then begin
        (match !prev with
        | -1 ->
          first := k;
          r.(k) <- Q.one
        | j ->
          r.(k) <-
            (if ch.fifo then r.(j) * (w.(j) + d.(j)) / (c.(k) + w.(k))
             else r.(j) * w.(j) / (c.(k) + w.(k) + d.(k))));
        prev := k
      end
    done;
    let alpha = Array.make q Q.zero in
    (match (!first, ch.binding) with
    | -1, None -> raise Reject
    | -1, Some l -> alpha.(l) <- Q.one / (c.(l) + d.(l))
    | k0, binding -> (
      let r0 =
        if ch.fifo then begin
          let acc = ref (r.(k0) * (c.(k0) + w.(k0))) in
          Array.iteri (fun k t -> if t then acc := !acc + (r.(k) * d.(k))) ch.tight;
          !acc
        end
        else c.(k0) + w.(k0) + d.(k0)
      in
      match binding with
      | None ->
        let t = Q.one / r0 in
        Array.iteri (fun k rk -> alpha.(k) <- t * rk) r
      | Some l ->
        let port = ref Q.zero in
        Array.iteri (fun k t -> if t then port := !port + (r.(k) * (c.(k) + d.(k)))) ch.tight;
        let a0l = if ch.fifo then d.(l) else Q.zero in
        let pl = c.(l) + d.(l) in
        let det = (r0 * pl) - (!port * a0l) in
        let t = (pl - a0l) / det in
        Array.iteri (fun k rk -> alpha.(k) <- t * rk) r;
        alpha.(l) <- (r0 - !port) / det));
    alpha

  let duals (ch : Cert.chain) ~c ~w ~d =
    let q = Array.length c in
    let y = Array.make q Q.zero in
    if ch.fifo then begin
      let u, v =
        match ch.binding with
        | None -> (Q.zero, Q.zero)
        | Some l ->
          let pl = c.(l) + d.(l) in
          (Q.one / pl, (Q.zero - d.(l)) / pl)
      in
      let a = Array.make q Q.zero and b = Array.make q Q.zero in
      let p0 = ref Q.zero and p1 = ref Q.zero in
      for k = 0 to top c do
        if ch.tight.(k) then begin
          let den = w.(k) + d.(k) and cd = c.(k) + d.(k) and dc = d.(k) - c.(k) in
          a.(k) <- (Q.one - (cd * u) - (dc * !p0)) / den;
          b.(k) <- (Q.zero - c.(k) - (cd * v) - (dc * !p1)) / den;
          p0 := !p0 + a.(k);
          p1 := !p1 + b.(k)
        end
      done;
      let total = !p0 / (Q.one - !p1) in
      Array.iteri (fun k t -> if t then y.(k) <- a.(k) + (b.(k) * total)) ch.tight;
      (y, u + (v * total))
    end
    else begin
      let port =
        match ch.binding with None -> Q.zero | Some l -> Q.one / (c.(l) + d.(l))
      in
      let s = ref Q.zero in
      for k = top c downto 0 do
        if ch.tight.(k) then begin
          let cd = c.(k) + d.(k) in
          y.(k) <- (Q.one - (cd * (!s + port))) / (cd + w.(k));
          s := !s + y.(k)
        end
      done;
      (y, port)
    end

  let run (ch : Cert.chain) ~c ~w ~d =
    let alpha = primal ch ~c ~w ~d in
    Array.iteri (fun k e -> if e && Q.sign alpha.(k) < 0 then raise Reject) ch.enrolled;
    let rows = rows ch ~c ~w ~d alpha in
    Array.iteri
      (fun k t ->
        let slack = Q.one - rows.(k) in
        if (t && Q.sign slack <> 0) || Q.sign slack < 0 then raise Reject)
      ch.tight;
    if ch.one_port then begin
      let port = ref Q.zero in
      Array.iteri (fun k a -> port := !port + (a * (c.(k) + d.(k)))) alpha;
      let slack = Q.one - !port in
      if (ch.binding <> None && Q.sign slack <> 0) || Q.sign slack < 0 then raise Reject
    end;
    let y, y_port = duals ch ~c ~w ~d in
    Array.iteri (fun k t -> if t && Q.sign y.(k) <= 0 then raise Reject) ch.tight;
    if ch.binding <> None && Q.sign y_port <= 0 then raise Reject;
    let prefix = ref Q.zero in
    let total = Array.fold_left ( + ) Q.zero y in
    for j = 0 to top c do
      let suffix = total - !prefix in
      prefix := !prefix + y.(j);
      let price =
        if ch.fifo then
          (c.(j) * suffix) + (d.(j) * !prefix) + (w.(j) * y.(j)) + ((c.(j) + d.(j)) * y_port)
        else ((c.(j) + d.(j)) * (suffix + y_port)) + (w.(j) * y.(j))
      in
      if ch.enrolled.(j) then (if Q.sign (price - Q.one) <> 0 then raise Reject)
      else if Q.sign (price - Q.one) <= 0 then raise Reject
    done;
    (alpha, rows)
end

module Rational_cert = struct
  (* [Some (solution, gaps)] when the basis is certified *)
  let exact ch (s : Dls.Scenario.t) ~basis =
    let q = Dls.Scenario.num_enrolled s in
    let field f =
      Array.init q (fun k -> f (Dls.Platform.get s.Dls.Scenario.platform s.Dls.Scenario.sigma1.(k)))
    in
    match
      Rational_chain.run ch ~c:(field (fun x -> x.Dls.Platform.c)) ~w:(field (fun x -> x.Dls.Platform.w))
        ~d:(field (fun x -> x.Dls.Platform.d))
    with
    | exception Rational_chain.Reject -> None
    | alpha, rows ->
      let gaps = Array.map (fun r -> Q.sub Q.one r) rows in
      let point = Array.make (2 * q) Q.zero in
      Array.blit alpha 0 point 0 q;
      Array.iter (fun j -> if j >= q && j < 2 * q then point.(j) <- gaps.(j - q)) basis;
      Some
        ( { Simplex.Solver.value = Q.sum_array alpha; point; pivots = 0; basis = Array.copy basis },
          gaps )

  let certify ~one_port s ~basis =
    match Cert.read ~one_port s ~basis with
    | None -> `Shape
    | Some ch ->
      if not (Cert.screen ch s) then `Rejected
      else match exact ch s ~basis with None -> `Rejected | Some c -> `Certified c
end

(* A random basis of chain shape for [q] workers: a non-empty enrolled
   set; under one-port, the port slack basic or not (then the last
   enrolled worker's row may leave a gap); each row that does not bind
   gets its idle variable or its slack. *)
let random_chain_basis rng ~one_port q =
  let enrolled = Array.init q (fun _ -> Random.State.int rng 3 > 0) in
  if not (Array.exists Fun.id enrolled) then enrolled.(Random.State.int rng q) <- true;
  let port_slack = one_port && Random.State.bool rng in
  let last = ref 0 in
  Array.iteri (fun k e -> if e then last := k) enrolled;
  let basis = ref (if port_slack then [ 3 * q ] else []) in
  for k = q - 1 downto 0 do
    if enrolled.(k) then basis := k :: !basis;
    if (not enrolled.(k)) || (one_port && (not port_slack) && k = !last) then
      basis := (if Random.State.bool rng then q + k else (2 * q) + k) :: !basis
  done;
  Array.of_list !basis

(* Worker parameters from three families: small integers over 1 or 2
   (ties and exact degeneracies, [d = 0] included), the test-wide
   rationals in 1..10 over 1..10, and numerators or denominators near
   10^18, which take the integers past the native range. *)
let random_cert_worker rng family =
  let small () = qq (1 + Random.State.int rng 3) (1 + Random.State.int rng 2) in
  let big () =
    let e18 = Numeric.Integer.of_string "1000000000000000000" in
    let n = Numeric.Integer.add e18 (Numeric.Integer.of_int (Random.State.int rng 1000)) in
    let k = Numeric.Integer.of_int (1 + Random.State.int rng 9) in
    if Random.State.bool rng then Q.make n (Numeric.Integer.mul k e18) else Q.make k n
  in
  let pick () =
    match family with
    | 0 -> small ()
    | 1 -> qq (1 + Random.State.int rng 10) (1 + Random.State.int rng 10)
    | _ -> if Random.State.bool rng then big () else small ()
  in
  let d = if family = 0 && Random.State.int rng 4 = 0 then Q.zero else pick () in
  Dls.Platform.worker ~c:(pick ()) ~w:(pick ()) ~d ()

(* The integer chain against the rational reference on random chain
   bases (and each LP's exact and float optimal bases): the same verdict
   and, when certified, the same value, point, basis and gaps, both
   behind the float screen and unscreened. *)
let test_structured_reference () =
  let rng = Random.State.make [| 2006; 27 |] in
  let seen = Hashtbl.create 16 in
  let count key = Hashtbl.replace seen key (1 + Option.value ~default:0 (Hashtbl.find_opt seen key)) in
  let same label (sol : Simplex.Solver.solution) gaps ((rsol : Simplex.Solver.solution), rgaps) =
    Alcotest.check rat (label ^ ": value") rsol.value sol.value;
    Alcotest.(check (array rat)) (label ^ ": point") rsol.point sol.point;
    Alcotest.(check (array int)) (label ^ ": basis") rsol.basis sol.basis;
    Alcotest.(check (array rat)) (label ^ ": gaps") rgaps gaps
  in
  for case = 1 to 400 do
    let family = case mod 3 in
    let n = 1 + Random.State.int rng 6 in
    let p = Dls.Platform.make_exn (List.init n (fun _ -> random_cert_worker rng family)) in
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    List.iter
      (fun (kind, s) ->
        List.iter
          (fun model ->
            let one_port = model = Dls.Lp_model.One_port in
            let exact = Dls.Solve.solve_exn ~mode:`Exact ~model s in
            let bases =
              (exact.Dls.Lp_model.basis :: Option.to_list (float_basis model s))
              @ List.init 4 (fun _ -> random_chain_basis rng ~one_port n)
            in
            List.iter
              (fun basis ->
                let label =
                  Printf.sprintf "case %d %s %s basis [%s]" case kind
                    (if one_port then "1p" else "2p")
                    (String.concat "," (Array.to_list (Array.map string_of_int basis)))
                in
                (match (Cert.certify ~one_port s ~basis, Rational_cert.certify ~one_port s ~basis) with
                | Cert.Shape, `Shape | Cert.Rejected, `Rejected -> ()
                | Cert.Certified { solution; gaps }, `Certified r -> same label solution gaps r
                | o, _ -> Alcotest.failf "%s: %s against the reference" label (outcome_name o));
                match Cert.read ~one_port s ~basis with
                | None -> ()
                | Some ch -> (
                  let ref_ = Rational_cert.exact ch s ~basis in
                  (* a degenerate vertex: an enrolled load at zero *)
                  (match ref_ with
                  | Some (rsol, _) ->
                    if Array.exists (fun k -> k < n && Q.is_zero rsol.point.(k)) basis then
                      count "zero load"
                  | None -> ());
                  match (Cert.exact ch s ~basis, ref_) with
                  | Cert.Rejected, None -> count "rejected"
                  | Cert.Certified { solution; gaps }, Some r ->
                    same (label ^ " unscreened") solution gaps r;
                    count (Printf.sprintf "%s %s %s" kind (if one_port then "1p" else "2p")
                             (if one_port && ch.binding <> None then "binding" else "slack"));
                    if family = 2 then count "big"
                  | o, _ ->
                    Alcotest.failf "%s unscreened: %s against the reference" label (outcome_name o)))
              bases)
          models)
      [ ("fifo", Dls.Scenario.fifo_exn p order); ("lifo", Dls.Scenario.lifo_exn p order) ]
  done;
  List.iter
    (fun key ->
      if not (Hashtbl.mem seen key) then Alcotest.failf "vacuous: no %s chain" key)
    [
      "fifo 1p binding"; "fifo 1p slack"; "fifo 2p slack"; "lifo 1p slack"; "lifo 2p slack";
      "rejected"; "zero load"; "big";
    ]

(* ------------------------------------------------------------------ *)
(* Normal form                                                         *)
(* ------------------------------------------------------------------ *)

(* The reference: the lexicographic maximum of alpha in sigma1 order
   over the optimal schedules, by a sequence of exact LPs on the
   scenario's LP with [sum alpha >= rho]: maximise each load in turn,
   then hold it at its maximum. *)
let lex_max_reference model s rho =
  let module P = Simplex.Problem in
  let lp = Dls.Lp_model.problem model s in
  let n = P.num_vars lp and q = Dls.Scenario.num_enrolled s in
  let unit k = Array.init n (fun v -> if v = k then Q.one else Q.zero) in
  let rows =
    ref
      (Array.to_list lp.P.constraints
      @ [ P.constr (Array.init n (fun v -> if v < q then Q.one else Q.zero)) P.Ge rho ])
  in
  Array.init q (fun k ->
      match Simplex.Solver.solve (P.make P.Maximize (unit k) !rows) with
      | Simplex.Solver.Optimal sol ->
        rows := !rows @ [ P.constr (unit k) P.Eq sol.Simplex.Solver.value ];
        sol.Simplex.Solver.value
      | _ -> Alcotest.fail "the optimal face is empty")

(* Uniform-ratio platforms of 2 to 7 workers: a bus (one [c]), [c] drawn
   from two values (ties), or every [c] drawn freely; [z] below, at and
   above 1. *)
let normal_form_platform rng =
  let n = 2 + Random.State.int rng 6 in
  let kind = Random.State.int rng 3 in
  let z = [| qq 1 2; qq 2 3; Q.one; qq 3 2; q 2 |].(Random.State.int rng 5) in
  let small () = qq (1 + Random.State.int rng 6) (1 + Random.State.int rng 4) in
  let bus = small () and pair = [| small (); small () |] in
  let c () = match kind with 0 -> bus | 1 -> pair.(Random.State.int rng 2) | _ -> small () in
  let p = Dls.Platform.with_return_ratio ~z (List.init n (fun _ -> (c (), small ()))) in
  ((match kind with 0 -> "bus" | 1 -> "ties" | _ -> "distinct"), p)

(* [Structured_cert.normal_form] against the reference on random FIFO
   and LIFO LPs (Theorem 1 orders and random ones, both port models):
   wherever it answers, its point is the lexicographic maximum, its
   value the exact simplex's [rho], and both solve modes return it.
   Every scenario's fast answer stays bit-identical to the exact one. *)
let test_normal_form_reference () =
  let rng = Random.State.make [| 2006; 31 |] in
  let seen = Hashtbl.create 16 in
  let count key = Hashtbl.replace seen key (1 + Option.value ~default:0 (Hashtbl.find_opt seen key)) in
  for case = 1 to 300 do
    let kind, p = normal_form_platform rng in
    let n = Dls.Platform.size p in
    let shuffled = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = shuffled.(i) in
      shuffled.(i) <- shuffled.(j);
      shuffled.(j) <- t
    done;
    let z =
      match Dls.Platform.z_ratio p with
      | Some z -> [| "z<1"; "z=1"; "z>1" |].(1 + Q.compare z Q.one)
      | None -> Alcotest.fail "not a uniform ratio"
    in
    List.iter
      (fun (order, s) ->
        List.iter
          (fun model ->
            let one_port = model = Dls.Lp_model.One_port in
            let label =
              Printf.sprintf "case %d %s %s %s %s" case kind z order (if one_port then "1p" else "2p")
            in
            let exact = Dls.Solve.solve_exn ~mode:`Exact ~model s in
            check_same_answer label exact (Dls.Solve.solve_exn ~mode:`Fast ~model s);
            match Dls.Structured_cert.normal_form ~one_port s with
            | None -> ()
            | Some (sol, _) ->
              let q = Dls.Scenario.num_enrolled s in
              let reference = lex_max_reference model s exact.Dls.Lp_model.rho in
              Alcotest.check rat (label ^ ": rho") exact.Dls.Lp_model.rho sol.Simplex.Solver.value;
              Alcotest.(check (array rat)) (label ^ ": lexicographic maximum") reference
                (Array.sub sol.Simplex.Solver.point 0 q);
              Alcotest.(check (array rat)) (label ^ ": solve answer") reference
                (Array.map (fun i -> exact.Dls.Lp_model.alpha.(i)) s.Dls.Scenario.sigma1);
              List.iter count
                [
                  "answered";
                  kind;
                  z;
                  (if one_port then "1p" else "2p");
                  String.sub order 0 4 ^ " " ^ z;
                ])
          models)
      [
        ("fifo Theorem 1", Dls.Scenario.fifo_exn p (Dls.Fifo.order p));
        ("lifo Theorem 1", Dls.Scenario.lifo_exn p (Dls.Lifo.order p));
        ("fifo shuffled", Dls.Scenario.fifo_exn p shuffled);
        ("lifo shuffled", Dls.Scenario.lifo_exn p shuffled);
      ]
  done;
  let answered = Option.value ~default:0 (Hashtbl.find_opt seen "answered") in
  if answered < 500 then Alcotest.failf "only %d normal forms checked" answered;
  List.iter
    (fun key -> if not (Hashtbl.mem seen key) then Alcotest.failf "vacuous: no %s normal form" key)
    [
      "bus"; "ties"; "distinct"; "1p"; "2p"; "fifo z<1"; "fifo z=1"; "fifo z>1"; "lifo z<1";
      "lifo z=1"; "lifo z>1";
    ]

(* ------------------------------------------------------------------ *)
(* Long chains                                                         *)
(* ------------------------------------------------------------------ *)

(* The float screen may not rule out a basis that the exact test
   certifies.  On chains of 160 workers (the Fig. 10-13 families on
   gdsdmi, n = 400, z in {1/2, 1, 3/2}), the float simplex's basis and
   the normal form's are read as chains; every one [exact] certifies
   must pass [screen].  Under the old strict screen the LIFO back
   substitution cancelled tight duals to an exact 0.0 here and ruled
   such bases out. *)
let test_long_chains () =
  let rng = Numeric.Prng.create ~seed:5 in
  let certified = Hashtbl.create 4 and lost = ref 0 in
  List.iteri
    (fun i sc ->
      let f = Cluster.Gen.factors rng sc ~workers:160 in
      let base = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:400 f in
      let z = [| qq 1 2; Q.one; qq 3 2 |].(i mod 3) in
      let p =
        Dls.Platform.with_return_ratio ~z
          (List.init 160 (fun k ->
               let wk = Dls.Platform.get base k in
               (wk.Dls.Platform.c, wk.Dls.Platform.w)))
      in
      List.iter
        (fun (kind, s) ->
          List.iter
            (fun model ->
              let one_port = model = Dls.Lp_model.One_port in
              let normal =
                Option.map
                  (fun (sol, _) -> sol.Simplex.Solver.basis)
                  (Dls.Structured_cert.normal_form ~one_port s)
              in
              List.iter
                (fun basis ->
                  match Cert.read ~one_port s ~basis with
                  | None -> ()
                  | Some ch -> (
                    match Cert.exact ch s ~basis with
                    | Cert.Rejected | Cert.Shape -> ()
                    | Cert.Certified _ ->
                      Hashtbl.replace certified kind
                        (1 + Option.value ~default:0 (Hashtbl.find_opt certified kind));
                      if not (Cert.screen ch s) then incr lost))
                (Option.to_list (float_basis model s) @ Option.to_list normal))
            models)
        (scenarios p))
    Cluster.Gen.
      [
        Homogeneous; Hom_comm_het_comp; Heterogeneous; Homogeneous; Hom_comm_het_comp; Heterogeneous;
      ];
  List.iter
    (fun kind ->
      if not (Hashtbl.mem certified kind) then Alcotest.failf "vacuous: no %s basis certified" kind)
    [ "fifo"; "lifo" ];
  Alcotest.(check int) "certified bases the screen rules out" 0 !lost

let () =
  Alcotest.run "dls"
    [
      ( "platform",
        [
          Alcotest.test_case "validation" `Quick test_platform_validation;
          Alcotest.test_case "z ratio" `Quick test_platform_z_ratio;
          Alcotest.test_case "is_bus" `Quick test_platform_is_bus;
          Alcotest.test_case "scaling" `Quick test_platform_scaling;
          Alcotest.test_case "stable sort" `Quick test_platform_sorted_stable;
          Alcotest.test_case "restrict" `Quick test_platform_restrict;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "kinds" `Quick test_scenario_kinds;
        ] );
      ( "lp_model",
        [
          Alcotest.test_case "single worker" `Quick test_lp_single_worker;
          Alcotest.test_case "two workers FIFO" `Quick test_lp_two_workers_fifo;
          Alcotest.test_case "two workers LIFO" `Quick test_lp_two_workers_lifo;
          Alcotest.test_case "two-port relaxation" `Quick test_lp_two_port_relaxation;
          Alcotest.test_case "time for load" `Quick test_lp_time_for_load;
          Alcotest.test_case "enrolled subset" `Quick test_lp_enrolled_subset;
          prop_estimate_rho_accurate;
          prop_constraint_report_lemma1;
          Alcotest.test_case "constraint report" `Quick test_constraint_report_shape;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "order z<1" `Quick test_fifo_order_small_z;
          Alcotest.test_case "order z>1" `Quick test_fifo_order_big_z;
          Alcotest.test_case "resource selection" `Quick test_fifo_drops_slow_worker;
          prop_theorem1_small_z;
          prop_theorem1_big_z;
          prop_mirror_agrees;
          prop_monotone_in_workers;
          prop_idle_structure;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "single worker" `Quick test_closed_form_single;
          Alcotest.test_case "saturated port" `Quick test_closed_form_saturated;
          prop_theorem2_matches_lp;
          prop_theorem2_two_port;
          prop_theorem2_order_invariant;
        ] );
      ("lifo", [ prop_lifo_order_optimal; prop_lifo_oneport_equals_twoport ]);
      ( "structured",
        [
          Alcotest.test_case "accepted = exact" `Quick test_structured_matches_exact;
          Alcotest.test_case "alternate optima rejected" `Quick
            test_structured_rejects_alternate_optima;
          Alcotest.test_case "perturbed basis rejected" `Quick
            test_structured_rejects_perturbed;
          Alcotest.test_case "integer chain = rational reference" `Quick
            test_structured_reference;
        ] );
      ( "normal form",
        [ Alcotest.test_case "= lexicographic maximum" `Quick test_normal_form_reference ] );
      ("long chains", [ Alcotest.test_case "screen keeps certified" `Quick test_long_chains ]);
      ( "heuristics",
        [
          prop_inc_c_beats_inc_w;
          prop_general_at_least_fifo_lifo;
          Alcotest.test_case "permutations" `Quick test_permutations_count;
          Alcotest.test_case "permutations_seq agrees" `Quick
            test_permutations_seq_agrees;
        ] );
      ( "schedule",
        [
          prop_schedule_valid;
          prop_schedule_scaling;
          Alcotest.test_case "mirror roundtrip" `Quick test_schedule_mirror_roundtrip;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "paper example" `Quick test_rounding_paper_example;
          Alcotest.test_case "zero total" `Quick test_rounding_zero_total;
          Alcotest.test_case "all on one worker" `Quick
            test_rounding_all_on_one_worker;
          Alcotest.test_case "leftovers cycle in order" `Quick
            test_rounding_leftovers_cycle_in_order;
          Alcotest.test_case "leftover guard boundary" `Quick
            test_rounding_guard_when_leftovers_exceed_entries;
          Alcotest.test_case "rejects bad input" `Quick
            test_rounding_rejects_bad_input;
          prop_rounding_conserves;
          prop_rounding_respects_selection;
        ] );
      ( "no_return",
        [
          Alcotest.test_case "single worker" `Quick test_no_return_single;
          Alcotest.test_case "recursion" `Quick test_no_return_recursion;
          prop_no_return_matches_lp;
          prop_no_return_bandwidth_order_optimal;
          prop_no_return_all_participate;
          prop_returns_only_hurt;
        ] );
      ( "bounds",
        [
          prop_bounds_sandwich_optimum;
          prop_bounds_general_upper;
          Alcotest.test_case "single worker tight" `Quick
            test_bounds_single_worker_tight;
        ] );
      ( "api",
        [
          Alcotest.test_case "heuristic names" `Quick test_heuristics_names;
          Alcotest.test_case "idle times" `Quick test_schedule_idle_times;
          Alcotest.test_case "scale validation" `Quick test_schedule_scale_validation;
          Alcotest.test_case "mirror rejects d=0" `Quick
            test_schedule_mirror_rejects_no_return;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "z=1 order" `Quick test_fifo_order_z_equal_one;
        ] );
      ( "sensitivity",
        [
          prop_slowing_never_helps;
          prop_speeding_never_hurts;
          Alcotest.test_case "dropped worker flat" `Quick
            test_sensitivity_dropped_worker_is_flat;
          Alcotest.test_case "table shape" `Quick test_sensitivity_table_shape;
          Alcotest.test_case "validation" `Quick test_sensitivity_perturb_validation;
          Alcotest.test_case "z preserved" `Quick test_sensitivity_preserves_z;
        ] );
      ( "delta",
        [
          Alcotest.test_case "apply" `Quick test_delta_apply;
          Alcotest.test_case "apply rejects" `Quick test_delta_apply_rejects;
          Alcotest.test_case "spec round-trip" `Quick test_delta_spec_roundtrip;
          Alcotest.test_case "spec positioned errors" `Quick
            test_delta_spec_errors;
          Alcotest.test_case "scenario keeps order" `Quick
            test_delta_scenario_keeps_order;
          Alcotest.test_case "sensitivity is the special case" `Quick
            test_sensitivity_to_delta;
          Alcotest.test_case "scenario key distance" `Quick
            test_scenario_key_distance;
        ] );
      ( "formats",
        [
          Alcotest.test_case "platform roundtrip" `Quick test_platform_io_roundtrip;
          Alcotest.test_case "platform comments" `Quick test_platform_io_comments;
          Alcotest.test_case "platform errors" `Quick test_platform_io_errors;
          Alcotest.test_case "tree roundtrip" `Quick test_tree_syntax_roundtrip;
          Alcotest.test_case "tree errors" `Quick test_tree_syntax_comments_and_errors;
        ] );
      ( "tree",
        [
          Alcotest.test_case "flat = star" `Quick test_tree_flat_equals_star;
          Alcotest.test_case "single chain" `Quick test_tree_single_chain;
          Alcotest.test_case "relay chain" `Quick test_tree_relay_chain;
          Alcotest.test_case "computing internal" `Quick
            test_tree_computing_internal_node;
          Alcotest.test_case "leaf equivalent" `Quick test_tree_equivalent_leaf;
          Alcotest.test_case "constructors" `Quick test_tree_constructors;
          Alcotest.test_case "leaf master rejected" `Quick (fun () ->
              try
                ignore (Dls.Tree.throughput (Dls.Tree.leaf Q.one));
                Alcotest.fail "leaf root accepted"
              with Invalid_argument _ -> ());
          prop_tree_validates;
          prop_tree_load_conservation;
          prop_tree_extra_leaf_helps;
          prop_tree_relay_costs;
        ] );
      ( "search",
        [
          prop_search_matches_brute;
          prop_search_never_below_heuristic;
          prop_search_proves_theorem1;
          prop_search_lifo_matches_brute;
          prop_search_lifo_confirms_order;
          Alcotest.test_case "two-port model" `Quick test_search_two_port;
        ] );
      ( "multiround",
        [
          Alcotest.test_case "R=1 equals paper LP" `Quick
            test_multiround_one_round_equals_scenario_lp;
          Alcotest.test_case "R=1 no returns" `Quick test_multiround_no_returns_one_round;
          Alcotest.test_case "too slow" `Quick test_multiround_too_slow;
          Alcotest.test_case "validation" `Quick test_multiround_validation;
          Alcotest.test_case "finite optimum with latency" `Quick
            test_multiround_latency_finite_optimum;
          prop_multiround_one_round_matches_lp;
          prop_multiround_monotone_in_rounds;
          prop_multiround_totals_consistent;
        ] );
      ( "affine",
        [
          Alcotest.test_case "zero latency = linear" `Quick
            test_affine_zero_latency_matches_linear;
          Alcotest.test_case "too slow" `Quick test_affine_too_slow;
          Alcotest.test_case "latency forces selection" `Quick
            test_affine_latency_forces_selection;
          prop_affine_zero_latency_best;
          prop_affine_latency_monotone;
          prop_affine_general_at_least_fifo;
        ] );
    ]
