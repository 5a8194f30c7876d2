(* Tests for the verification subsystem: the exact schedule validator,
   the independent LP certificate, schedule serialization, and the
   differential fuzzing matrix over the three return-ratio regimes. *)

module Q = Numeric.Rational
module Validator = Check.Validator
module Certificate = Check.Certificate
module Fuzz = Check.Fuzz

let qq = Q.of_ints

let worker ?name c w d =
  Dls.Platform.worker ?name ~c:(qq (fst c) (snd c)) ~w:(qq (fst w) (snd w))
    ~d:(qq (fst d) (snd d)) ()

let two_worker_platform () =
  Dls.Platform.make_exn [ worker (1, 1) (1, 1) (1, 2); worker (1, 1) (2, 1) (1, 2) ]

let fifo_schedule () = Dls.Schedule.of_solved (Dls.Fifo.optimal (two_worker_platform ()))

let check_ok label = function
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: unexpected violations: %s" label
      (String.concat "; " vs)

let violations sched =
  match Validator.validate sched with Ok () -> [] | Error vs -> vs

(* Rebuild a schedule with entry [k] replaced. *)
let with_entry sched k entry =
  let entries = Array.copy sched.Dls.Schedule.entries in
  entries.(k) <- entry;
  { sched with Dls.Schedule.entries }

(* ------------------------------------------------------------------ *)
(* Validator                                                           *)
(* ------------------------------------------------------------------ *)

let test_validator_accepts_solver_output () =
  let p = two_worker_platform () in
  List.iter
    (fun sol ->
      check_ok "solver schedule"
        (Validator.errors_of_result p (Validator.validate_solved sol)))
    [
      Dls.Fifo.optimal p;
      Dls.Lifo.optimal p;
      Dls.Fifo.optimal ~model:Dls.Lp_model.Two_port p;
      Dls.Heuristics.solve Dls.Heuristics.Inc_w p;
    ]

let expect label pred sched =
  if not (List.exists pred (violations sched)) then
    Alcotest.failf "expected a %s violation" label

let test_validator_catches_corruption () =
  let sched = fifo_schedule () in
  let e0 = sched.Dls.Schedule.entries.(0) in
  let e1 = sched.Dls.Schedule.entries.(1) in
  (* Shrink a send: its duration no longer matches alpha * c. *)
  expect "duration-mismatch"
    (function Validator.Duration_mismatch { phase = "send"; _ } -> true | _ -> false)
    (with_entry sched 0
       {
         e0 with
         Dls.Schedule.send =
           { e0.Dls.Schedule.send with Dls.Schedule.finish = e0.Dls.Schedule.send.Dls.Schedule.start };
       });
  (* Start computing before the data is in. *)
  expect "compute-before-receive"
    (function Validator.Compute_before_receive _ -> true | _ -> false)
    (with_entry sched 0
       {
         e0 with
         Dls.Schedule.compute =
           {
             Dls.Schedule.start = Q.sub e0.Dls.Schedule.compute.Dls.Schedule.start Q.half;
             finish = Q.sub e0.Dls.Schedule.compute.Dls.Schedule.finish Q.half;
           };
       });
  (* Return before the whole computation is done. *)
  expect "return-before-compute"
    (function Validator.Return_before_compute _ -> true | _ -> false)
    (with_entry sched 1
       {
         e1 with
         Dls.Schedule.return_ =
           {
             Dls.Schedule.start = Q.sub e1.Dls.Schedule.return_.Dls.Schedule.start Q.half;
             finish = Q.sub e1.Dls.Schedule.return_.Dls.Schedule.finish Q.half;
           };
       });
  (* Push a return past the horizon. *)
  expect "outside-horizon"
    (function Validator.Outside_horizon _ -> true | _ -> false)
    (with_entry sched 1
       {
         e1 with
         Dls.Schedule.return_ =
           {
             Dls.Schedule.start = Q.add e1.Dls.Schedule.return_.Dls.Schedule.start Q.half;
             finish = Q.add e1.Dls.Schedule.return_.Dls.Schedule.finish Q.half;
           };
       });
  (* Duplicate a worker. *)
  expect "duplicate-worker"
    (function Validator.Duplicate_worker _ -> true | _ -> false)
    (with_entry sched 1 e0);
  (* Zero out a load. *)
  expect "non-positive-load"
    (function Validator.Nonpositive_load _ -> true | _ -> false)
    (with_entry sched 0
       {
         e0 with
         Dls.Schedule.alpha = Q.zero;
         send = { e0.Dls.Schedule.send with Dls.Schedule.finish = e0.Dls.Schedule.send.Dls.Schedule.start };
         compute =
           { e0.Dls.Schedule.compute with Dls.Schedule.finish = e0.Dls.Schedule.compute.Dls.Schedule.start };
         return_ =
           { e0.Dls.Schedule.return_ with Dls.Schedule.finish = e0.Dls.Schedule.return_.Dls.Schedule.start };
       })

let test_validator_one_port_overlap () =
  let sched = fifo_schedule () in
  let e1 = sched.Dls.Schedule.entries.(1) in
  (* Slide P2's send half a unit earlier: it now crosses P1's send. *)
  let shifted =
    {
      e1 with
      Dls.Schedule.send =
        {
          Dls.Schedule.start = Q.sub e1.Dls.Schedule.send.Dls.Schedule.start Q.half;
          finish = Q.sub e1.Dls.Schedule.send.Dls.Schedule.finish Q.half;
        };
      compute =
        { e1.Dls.Schedule.compute with Dls.Schedule.start = Q.sub e1.Dls.Schedule.compute.Dls.Schedule.start Q.half };
    }
  in
  (* The compute duration changed too; only assert the overlap is seen. *)
  expect "one-port-overlap"
    (function Validator.One_port_overlap _ -> true | _ -> false)
    (with_entry sched 1 shifted)

let test_validator_touching_is_valid () =
  (* The canonical schedule packs transfers back-to-back: every boundary
     touches, none overlaps.  This is the explicit boundary semantics:
     touching intervals are NOT overlapping. *)
  let sched = fifo_schedule () in
  check_ok "touching"
    (Validator.errors_of_result sched.Dls.Schedule.platform (Validator.validate sched));
  (* And the master timeline really is packed: P1.send touches P2.send. *)
  let e0 = sched.Dls.Schedule.entries.(0) and e1 = sched.Dls.Schedule.entries.(1) in
  Alcotest.(check bool) "sends touch" true
    (Q.equal e0.Dls.Schedule.send.Dls.Schedule.finish e1.Dls.Schedule.send.Dls.Schedule.start)

let test_validator_load_sum () =
  let sol = Dls.Fifo.optimal (two_worker_platform ()) in
  (* [solved] is a private record, but the alpha array is still an
     array: tampering with it models a solver-layer bug. *)
  let saved = sol.Dls.Lp_model.alpha.(0) in
  sol.Dls.Lp_model.alpha.(0) <- Q.zero;
  let r = Validator.validate_solved sol in
  sol.Dls.Lp_model.alpha.(0) <- saved;
  (match r with
  | Error vs
    when List.exists
           (function Validator.Load_sum_mismatch _ -> true | _ -> false)
           vs ->
    ()
  | Ok () -> Alcotest.fail "tampered loads validated"
  | Error _ -> Alcotest.fail "wrong violation for tampered loads");
  check_ok "restored"
    (Validator.errors_of_result
       sol.Dls.Lp_model.scenario.Dls.Scenario.platform
       (Validator.validate_solved sol))

(* ------------------------------------------------------------------ *)
(* Certificate                                                         *)
(* ------------------------------------------------------------------ *)

let test_certificate_accepts () =
  let p = two_worker_platform () in
  List.iter
    (fun sol -> check_ok "certificate" (Certificate.check sol))
    [
      Dls.Fifo.optimal p;
      Dls.Lifo.optimal p;
      Dls.Fifo.optimal ~model:Dls.Lp_model.Two_port p;
    ]

let test_certificate_rejects_tampering () =
  let sol = Dls.Fifo.optimal (two_worker_platform ()) in
  let saved = sol.Dls.Lp_model.alpha.(0) in
  (* Inflate the first load: some deadline row must now exceed 1. *)
  sol.Dls.Lp_model.alpha.(0) <- Q.add saved Q.one;
  let r = Certificate.check sol in
  sol.Dls.Lp_model.alpha.(0) <- saved;
  (match r with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inflated loads certified");
  Alcotest.(check bool) "restored" true (Certificate.holds sol)

(* ------------------------------------------------------------------ *)
(* Schedule serialization                                               *)
(* ------------------------------------------------------------------ *)

let test_schedule_io_roundtrip () =
  let sched = fifo_schedule () in
  match Dls.Schedule_io.of_string (Dls.Schedule_io.to_string sched) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Dls.Errors.to_string e)
  | Ok sched' ->
    Alcotest.(check string) "identical dump"
      (Dls.Schedule_io.to_string sched)
      (Dls.Schedule_io.to_string sched');
    check_ok "parsed schedule validates"
      (Validator.errors_of_result sched'.Dls.Schedule.platform
         (Validator.validate sched'))

let test_schedule_io_rejects_malformed () =
  let expect_error label text =
    match Dls.Schedule_io.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed schedule accepted" label
  in
  expect_error "empty" "";
  expect_error "no horizon" "worker P1 1 1 1\n";
  expect_error "no workers" "horizon 1\n";
  expect_error "unknown directive" "horizon 1\nworker P1 1 1 1\nfrobnicate\n";
  expect_error "bad rational" "horizon x\nworker P1 1 1 1\n";
  expect_error "bad arity" "horizon 1\nworker P1 1 1 1\nentry 0 1/2\n";
  expect_error "bad index" "horizon 1\nworker P1 1 1 1\nentry 3 1/2 0 1/2 1/2 1 1 3/2\n"

let test_schedule_io_corruption_detected () =
  (* A dumped-then-corrupted schedule parses but does not validate —
     the library-level half of the CLI exit-code test (the dune rule in
     test/dune runs the real [dls check] binary on the same fixture). *)
  let text =
    "# corrupted by hand: P2's return starts before its compute ends\n\
     horizon 1\n\
     worker P1 1 1 1/2\n\
     worker P2 1 2 1/2\n\
     entry 0 4/11 0 4/11 4/11 8/11 8/11 10/11\n\
     entry 1 2/11 4/11 6/11 6/11 10/11 9/11 1\n"
  in
  match Dls.Schedule_io.of_string text with
  | Error e -> Alcotest.failf "fixture should parse: %s" (Dls.Errors.to_string e)
  | Ok sched -> (
    match Validator.validate sched with
    | Ok () -> Alcotest.fail "corrupted schedule validated"
    | Error vs ->
      Alcotest.(check bool) "several violations" true (List.length vs >= 2))

(* ------------------------------------------------------------------ *)
(* Differential fuzzing                                                 *)
(* ------------------------------------------------------------------ *)

(* A failure's labelled inputs on one line, for the test's message. *)
let inputs_line (f : Fuzz.failure) =
  String.concat ", "
    (List.map
       (fun (label, text) ->
         label ^ " "
         ^ String.concat " | " (String.split_on_char '\n' (String.trim text)))
       f.Fuzz.inputs)

let matrix_case regime =
  let name =
    Printf.sprintf "matrix %s (200 platforms)" (Fuzz.regime_to_string regime)
  in
  let run () =
    match Fuzz.run_matrix ~count:200 regime with
    | [] -> ()
    | f :: _ as fs ->
      Alcotest.failf "%d platform(s) failed; first (index %d, %s): %s"
        (List.length fs) f.Fuzz.index (inputs_line f)
        (String.concat "; " f.Fuzz.messages)
  in
  Alcotest.test_case name `Slow run

(* The full fuzz corpus through both LP pipelines: every FIFO and LIFO
   order of every platform, under both port models, must solve
   bit-identically fast and exact, with each fast answer re-certified
   (see [Fuzz.check_platform ~fast:true]). *)
let fast_matrix_case regime =
  let name =
    Printf.sprintf "fast-pipeline matrix %s (60 platforms)"
      (Fuzz.regime_to_string regime)
  in
  let run () =
    match Fuzz.run_matrix ~fast:true ~count:60 regime with
    | [] -> ()
    | f :: _ as fs ->
      Alcotest.failf "%d platform(s) failed; first (index %d, %s): %s"
        (List.length fs) f.Fuzz.index (inputs_line f)
        (String.concat "; " f.Fuzz.messages)
  in
  Alcotest.test_case name `Slow run

(* An independent QCheck generator (different distribution than
   [Fuzz.gen_platform]) feeding the same differential matrix. *)
let gen_qcheck_platform regime =
  let open QCheck2.Gen in
  let pos = int_range 1 9 in
  let rational = map2 qq pos (int_range 1 5) in
  let z =
    match regime with
    | Fuzz.Unit_z -> return Q.one
    | Fuzz.Small_z ->
      let* den = int_range 2 9 in
      let* num = int_range 1 (den - 1) in
      return (qq num den)
    | Fuzz.Big_z ->
      let* num = int_range 2 9 in
      let* den = int_range 1 (num - 1) in
      return (qq num den)
  in
  let* z = z in
  let* n = int_range 2 4 in
  let* specs = list_size (return n) (pair rational rational) in
  return (Dls.Platform.with_return_ratio ~z specs)

let prop_case regime =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:(Printf.sprintf "qcheck matrix %s" (Fuzz.regime_to_string regime))
       (gen_qcheck_platform regime)
       (fun p ->
         match Fuzz.check_platform p with
         | [] -> true
         | msgs -> QCheck2.Test.fail_report (String.concat "; " msgs)))

(* A float-simplex stall (forced here with a zero pivot budget) must
   route through the exact fallback and still produce the bit-identical
   answer — the pipeline's safety net, pinned. *)
let test_fast_stall_fallback () =
  let p = two_worker_platform () in
  let s = Dls.Scenario.fifo_exn p [| 0; 1 |] in
  let cold = Dls.Solve.solve_exn ~mode:`Exact s in
  let before = Dls.Lp_model.pipeline_stats () in
  let fast = Dls.Solve.solve_exn ~mode:`Fast ~max_float_pivots:0 s in
  Alcotest.(check bool) "identical rho" true
    (Q.equal fast.Dls.Lp_model.rho cold.Dls.Lp_model.rho);
  Alcotest.(check bool) "identical loads" true
    (Array.for_all2 Q.equal fast.Dls.Lp_model.alpha cold.Dls.Lp_model.alpha);
  Alcotest.(check bool) "identical idle times" true
    (Array.for_all2 Q.equal fast.Dls.Lp_model.idle cold.Dls.Lp_model.idle);
  let after = Dls.Lp_model.pipeline_stats () in
  Alcotest.(check bool) "took the exact fallback" true
    (after.Dls.Lp_model.exact_fallbacks - before.Dls.Lp_model.exact_fallbacks
    >= 1);
  check_ok "fallback result certifies" (Certificate.check fast)

let test_matrix_reproducible () =
  (* Same seed, same failures (here: none) for any [jobs]. *)
  let a = Fuzz.run_matrix ~jobs:1 ~count:20 ~seed:3 Fuzz.Big_z in
  let b = Fuzz.run_matrix ~jobs:4 ~count:20 ~seed:3 Fuzz.Big_z in
  Alcotest.(check int) "same failure count" (List.length a) (List.length b)

(* The warm-repair acceptance matrix: 100 seeded deltas per regime (300
   total), each asserting the repaired answer is bit-identical to the
   exact solve or that the declined repair falls back to the (equally
   bit-identical) fast pipeline. *)
let resolve_matrix_case regime =
  let name =
    Printf.sprintf "resolve matrix %s (100 deltas)" (Fuzz.regime_to_string regime)
  in
  let run () =
    match Fuzz.run_resolve_matrix ~count:100 regime with
    | [] -> ()
    | f :: _ as fs ->
      Alcotest.failf "%d delta case(s) failed; first (index %d, %s): %s"
        (List.length fs) f.Fuzz.index (inputs_line f)
        (String.concat "; " f.Fuzz.messages)
  in
  Alcotest.test_case name `Slow run

let test_resolve_matrix_reproducible () =
  let a = Fuzz.run_resolve_matrix ~jobs:1 ~count:20 ~seed:5 Fuzz.Small_z in
  let b = Fuzz.run_resolve_matrix ~jobs:4 ~count:20 ~seed:5 Fuzz.Small_z in
  Alcotest.(check int) "same failure count" (List.length a) (List.length b)

(* A tiny nudge against a solved base must be answered by the repair
   path itself — certify-first or a few dual pivots — not the fallback,
   and bit-identically to a cold exact solve. *)
let test_repair_wins_on_nudge () =
  let p = two_worker_platform () in
  let base = Dls.Fifo.optimal p in
  let delta = [ Dls.Delta.Scale_comp { worker = 0; factor = Q.of_ints 11 10 } ] in
  let s' = Dls.Delta.apply_scenario_exn base.Dls.Lp_model.scenario delta in
  let exact = Dls.Solve.solve_exn ~mode:`Exact s' in
  let before = Dls.Lp_model.resolve_stats () in
  match Dls.Lp_model.solve_from_neighbor Dls.Lp_model.One_port s' base with
  | None -> Alcotest.fail "repair declined a 10% compute nudge"
  | Some repaired ->
    Alcotest.(check bool) "identical rho" true
      (Q.equal repaired.Dls.Lp_model.rho exact.Dls.Lp_model.rho);
    Alcotest.(check bool) "identical loads" true
      (Array.for_all2 Q.equal repaired.Dls.Lp_model.alpha exact.Dls.Lp_model.alpha);
    let after = Dls.Lp_model.resolve_stats () in
    Alcotest.(check int) "counted as a win" 1
      (after.Dls.Lp_model.repair_wins - before.Dls.Lp_model.repair_wins)

(* Shape-changing deltas must be refused by the repair path: the cached
   basis indexes a different-dimension LP. *)
let test_repair_refuses_shape_change () =
  let p = two_worker_platform () in
  let base = Dls.Fifo.optimal p in
  let delta = [ Dls.Delta.Remove_worker 1 ] in
  let s' = Dls.Delta.apply_scenario_exn base.Dls.Lp_model.scenario delta in
  match Dls.Lp_model.solve_from_neighbor Dls.Lp_model.One_port s' base with
  | None -> ()
  | Some _ -> Alcotest.fail "repair accepted a basis of the wrong dimension"

(* End-to-end through the cache: a cold solve followed by a nudged
   scenario, re-solved with the base's basis as the warm start, must be
   won by that basis (no exact fallback) and equal the exact answer
   bit-for-bit. *)
let test_cached_delta_probes_neighbor () =
  let p = two_worker_platform () in
  Dls.Lp_model.reset_cache ();
  let s = Dls.Scenario.fifo_exn p [| 0; 1 |] in
  let base = Dls.Solve.solve_exn ~mode:`Cached s in
  let p' =
    Dls.Delta.apply_exn p [ Dls.Delta.Scale_comm { worker = 1; factor = Q.of_ints 9 8 } ]
  in
  let s' = Dls.Scenario.fifo_exn p' [| 0; 1 |] in
  let before = Dls.Lp_model.pipeline_stats () in
  let cached =
    Dls.Solve.solve_exn ~mode:`Cached ~warm:base.Dls.Lp_model.basis s'
  in
  let after = Dls.Lp_model.pipeline_stats () in
  let exact = Dls.Solve.solve_exn ~mode:`Exact s' in
  Alcotest.(check bool) "identical rho" true
    (Q.equal cached.Dls.Lp_model.rho exact.Dls.Lp_model.rho);
  Alcotest.(check bool) "identical loads" true
    (Array.for_all2 Q.equal cached.Dls.Lp_model.alpha exact.Dls.Lp_model.alpha);
  Alcotest.(check bool) "identical idle times" true
    (Array.for_all2 Q.equal cached.Dls.Lp_model.idle exact.Dls.Lp_model.idle);
  Alcotest.(check int) "a warm-start win" 1
    (after.Dls.Lp_model.warm_wins - before.Dls.Lp_model.warm_wins);
  Alcotest.(check int) "no exact fallback" 0
    (after.Dls.Lp_model.exact_fallbacks - before.Dls.Lp_model.exact_fallbacks)

(* A seeded near-duplicate stream: one generic-position p=5 base
   platform per z-regime (pairwise distinct link speeds, so the optimum
   is unique), then 20 single-worker nudges of it, alternately scaling a
   compute and a link speed by 8/10 .. 12/10.  Sent through [`Cached]
   in order, as the daemon does, every answer must be bit-identical to
   [`Exact]. *)
let nudge_stream ~regime ~z =
  let p = 5 in
  let rng = Numeric.Prng.create ~seed:(7901 + (97 * p) + regime) in
  let specs =
    List.init p (fun i ->
        let c =
          Q.of_ints ((10 * Numeric.Prng.int_range rng ~lo:2 ~hi:9) + i) 40
        in
        (c, Q.of_ints (Numeric.Prng.int_range rng ~lo:4 ~hi:20) 2))
  in
  let platform = Dls.Platform.with_return_ratio ~z specs in
  let base = Dls.Scenario.fifo_exn platform (Dls.Fifo.order platform) in
  base
  :: List.init 20 (fun i ->
         let rng =
           Numeric.Prng.create ~seed:(3301 + (131 * i) + (17 * p) + regime)
         in
         let worker = Numeric.Prng.int_range rng ~lo:0 ~hi:(p - 1) in
         let factor = Q.of_ints (Numeric.Prng.int_range rng ~lo:8 ~hi:12) 10 in
         Dls.Delta.apply_scenario_exn base
           [
             (if i mod 2 = 0 then Dls.Delta.Scale_comp { worker; factor }
              else Dls.Delta.Scale_comm { worker; factor });
           ])

let nudge_stream_case regime (label, z) =
  let run () =
    Dls.Lp_model.reset_cache ();
    List.iteri
      (fun i s ->
        let cached = Dls.Solve.solve_exn ~mode:`Cached s in
        let exact = Dls.Solve.solve_exn ~mode:`Exact s in
        let same what a b =
          if not (Array.for_all2 Q.equal a b) then
            Alcotest.failf "request %d: %s differ from exact" i what
        in
        if not (Q.equal cached.Dls.Lp_model.rho exact.Dls.Lp_model.rho) then
          Alcotest.failf "request %d: rho %s, exact %s" i
            (Q.to_string cached.Dls.Lp_model.rho)
            (Q.to_string exact.Dls.Lp_model.rho);
        same "loads" cached.Dls.Lp_model.alpha exact.Dls.Lp_model.alpha;
        same "idle times" cached.Dls.Lp_model.idle exact.Dls.Lp_model.idle)
      (nudge_stream ~regime ~z)
  in
  Alcotest.test_case ("cached nudge stream " ^ label) `Quick run

let test_lifo_z_gt_1_regression () =
  (* The exact platform on which the fuzzer first caught the reversed
     z > 1 LIFO order (it solved to 3/20 instead of 153/820). *)
  let p =
    Dls.Platform.make_exn
      [ worker ~name:"P1" (8, 1) (1, 2) (12, 1); worker ~name:"P2" (2, 3) (5, 1) (1, 1) ]
  in
  let lifo = Dls.Lifo.optimal p in
  let brute = Dls.Brute.best_lifo p in
  Alcotest.(check bool) "sorted LIFO order is optimal" true
    (Q.equal lifo.Dls.Lp_model.rho brute.Dls.Lp_model.rho);
  Alcotest.(check bool) "and beats the reversed order" true
    (Q.compare lifo.Dls.Lp_model.rho
       (Dls.Lifo.solve_order p [| 0; 1 |]).Dls.Lp_model.rho
    > 0)

let () =
  Alcotest.run "check"
    [
      ( "validator",
        [
          Alcotest.test_case "accepts solver output" `Quick
            test_validator_accepts_solver_output;
          Alcotest.test_case "catches corruption" `Quick
            test_validator_catches_corruption;
          Alcotest.test_case "one-port overlap" `Quick test_validator_one_port_overlap;
          Alcotest.test_case "touching boundaries valid" `Quick
            test_validator_touching_is_valid;
          Alcotest.test_case "load-sum mismatch" `Quick test_validator_load_sum;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "accepts solver output" `Quick test_certificate_accepts;
          Alcotest.test_case "rejects tampering" `Quick
            test_certificate_rejects_tampering;
        ] );
      ( "schedule-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_io_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick
            test_schedule_io_rejects_malformed;
          Alcotest.test_case "corruption detected" `Quick
            test_schedule_io_corruption_detected;
        ] );
      ( "differential",
        [
          matrix_case Fuzz.Small_z;
          matrix_case Fuzz.Unit_z;
          matrix_case Fuzz.Big_z;
          fast_matrix_case Fuzz.Small_z;
          fast_matrix_case Fuzz.Unit_z;
          fast_matrix_case Fuzz.Big_z;
          prop_case Fuzz.Small_z;
          prop_case Fuzz.Unit_z;
          prop_case Fuzz.Big_z;
          Alcotest.test_case "matrix jobs-reproducible" `Quick
            test_matrix_reproducible;
          Alcotest.test_case "fast stall falls back exactly" `Quick
            test_fast_stall_fallback;
          Alcotest.test_case "lifo z>1 regression" `Quick
            test_lifo_z_gt_1_regression;
        ] );
      ( "resolve",
        [
          resolve_matrix_case Fuzz.Small_z;
          resolve_matrix_case Fuzz.Unit_z;
          resolve_matrix_case Fuzz.Big_z;
          Alcotest.test_case "resolve matrix jobs-reproducible" `Quick
            test_resolve_matrix_reproducible;
          Alcotest.test_case "repair wins on a nudge" `Quick
            test_repair_wins_on_nudge;
          Alcotest.test_case "repair refuses shape change" `Quick
            test_repair_refuses_shape_change;
          Alcotest.test_case "cached delta probes neighbour" `Quick
            test_cached_delta_probes_neighbor;
        ]
        @ List.mapi nudge_stream_case
            [ ("z<1", Q.of_ints 1 2); ("z=1", Q.one); ("z>1", Q.of_int 2) ] );
    ]
