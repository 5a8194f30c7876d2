(* Fault model, online re-planning, and the robustness fuzz matrix. *)

module Q = Numeric.Rational
open Q.Infix

let q n = Q.of_int n
let qq a b = Q.of_ints a b
let rat = Alcotest.testable Q.pp Q.equal

let wk ?name c w d = Dls.Platform.worker ?name ~c ~w ~d ()

(* Three workers, uniform z = 1/2. *)
let platform3 () =
  Dls.Platform.make_exn
    [ wk Q.one Q.one Q.half; wk Q.one (q 2) Q.half; wk (q 2) Q.one Q.one ]

(* ------------------------------------------------------------------ *)
(* Fault plans: construction and text format                           *)
(* ------------------------------------------------------------------ *)

let sample_plan () =
  Dls.Faults.make_exn
    [
      Dls.Faults.Crash { worker = 1; at = qq 5 8 };
      Dls.Faults.Slowdown { worker = 0; factor = qq 3 2; from_ = qq 1 4 };
      Dls.Faults.Stall { worker = 0; at = qq 1 3; duration = qq 1 12 };
      Dls.Faults.Degrade { worker = 2; factor = q 2; from_ = Q.zero };
    ]

let test_plan_roundtrip () =
  let plan = sample_plan () in
  match Dls.Faults.of_string (Dls.Faults.to_string plan) with
  | Error e -> Alcotest.fail (Dls.Errors.to_string e)
  | Ok plan' ->
    Alcotest.(check string)
      "identical dump" (Dls.Faults.to_string plan) (Dls.Faults.to_string plan');
    (match Dls.Faults.first_onset plan with
    | Some t -> Alcotest.check rat "sorted by onset" Q.zero t
    | None -> Alcotest.fail "plan is empty")

let test_plan_validation () =
  let expect_invalid label faults =
    match Dls.Faults.make faults with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: invalid plan accepted" label
  in
  expect_invalid "factor < 1"
    [ Dls.Faults.Slowdown { worker = 0; factor = Q.half; from_ = Q.zero } ];
  expect_invalid "negative onset"
    [ Dls.Faults.Crash { worker = 0; at = Q.neg Q.one } ];
  expect_invalid "zero duration"
    [ Dls.Faults.Stall { worker = 0; at = Q.zero; duration = Q.zero } ];
  expect_invalid "negative worker"
    [ Dls.Faults.Degrade { worker = -1; factor = q 2; from_ = Q.zero } ];
  match
    Dls.Faults.validate_for (platform3 ())
      (Dls.Faults.make_exn [ Dls.Faults.Crash { worker = 7; at = Q.one } ])
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-platform worker accepted"

let test_plan_rejects_malformed () =
  List.iter
    (fun text ->
      match Dls.Faults.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [
      "frobnicate 0 1 1\n";
      "slowdown 0 1/2 0\n";
      "slowdown 0 x 0\n";
      "crash 0\n";
      "crash 0 1/0\n";
      "stall 0 1\n";
      "slowdown 0 2\n";
    ]

(* Satellite: no input may make any text parser raise. *)
let test_parser_garbage_never_raises () =
  let rng = Random.State.make [| 2026; 8; 6 |] in
  let alphabet = "0123456789/-.#entryworkhzcrasltdge \t\n\"\\xyzEQ" in
  let garbage () =
    String.init
      (Random.State.int rng 80)
      (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])
  in
  for _ = 1 to 500 do
    let s = garbage () in
    (match Dls.Platform_io.of_string s with Ok _ | Error _ -> ());
    (match Dls.Schedule_io.of_string s with Ok _ | Error _ -> ());
    match Dls.Faults.of_string s with Ok _ | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* The exact integrator                                                *)
(* ------------------------------------------------------------------ *)

let finish plan act ~start ~load =
  Dls.Faults.finish_time (platform3 ()) plan act ~start ~load

let test_integrator_nominal () =
  let empty = Dls.Faults.empty in
  Alcotest.(check (option rat))
    "send" (Some (q 2))
    (finish empty (Dls.Faults.Send_to 0) ~start:Q.zero ~load:(q 2));
  Alcotest.(check (option rat))
    "compute w=2" (Some (q 5))
    (finish empty (Dls.Faults.Compute_on 1) ~start:(q 1) ~load:(q 2));
  Alcotest.(check (option rat))
    "return d=1" (Some (q 3))
    (finish empty (Dls.Faults.Return_from 2) ~start:(q 1) ~load:(q 2))

let test_integrator_slowdown () =
  let plan =
    Dls.Faults.make_exn
      [ Dls.Faults.Slowdown { worker = 0; factor = q 2; from_ = Q.one } ]
  in
  (* 1 unit computed by t = 1, the second takes twice as long. *)
  Alcotest.(check (option rat))
    "slowdown bites at onset" (Some (q 3))
    (finish plan (Dls.Faults.Compute_on 0) ~start:Q.zero ~load:(q 2));
  (* Communication is untouched by a compute slowdown. *)
  Alcotest.(check (option rat))
    "send unaffected" (Some (q 2))
    (finish plan (Dls.Faults.Send_to 0) ~start:Q.zero ~load:(q 2))

let test_integrator_stall () =
  let plan =
    Dls.Faults.make_exn
      [ Dls.Faults.Stall { worker = 0; at = Q.one; duration = Q.one } ]
  in
  Alcotest.(check (option rat))
    "transfer freezes for the window" (Some (q 3))
    (finish plan (Dls.Faults.Send_to 0) ~start:Q.zero ~load:(q 2));
  Alcotest.(check (option rat))
    "compute ignores a comm stall" (Some (q 2))
    (finish plan (Dls.Faults.Compute_on 0) ~start:Q.zero ~load:(q 2))

let test_integrator_crash () =
  let plan = Dls.Faults.make_exn [ Dls.Faults.Crash { worker = 0; at = Q.one } ] in
  Alcotest.(check (option rat))
    "finishes exactly at the crash" (Some Q.one)
    (finish plan (Dls.Faults.Compute_on 0) ~start:Q.zero ~load:Q.one);
  Alcotest.(check (option rat))
    "never finishes past the crash" None
    (finish plan (Dls.Faults.Compute_on 0) ~start:Q.zero ~load:(q 2));
  Alcotest.(check (option rat))
    "sends still go through" (Some (q 2))
    (finish plan (Dls.Faults.Send_to 0) ~start:Q.zero ~load:(q 2))

let test_degraded_platform () =
  let plan =
    Dls.Faults.make_exn
      [
        Dls.Faults.Slowdown { worker = 0; factor = qq 3 2; from_ = q 5 };
        Dls.Faults.Slowdown { worker = 0; factor = q 2; from_ = q 7 };
        Dls.Faults.Degrade { worker = 1; factor = q 2; from_ = Q.zero };
      ]
  in
  let p' = Dls.Faults.degraded_platform (platform3 ()) plan in
  Alcotest.check rat "slowdowns compound on w" (q 3) (Dls.Platform.get p' 0).Dls.Platform.w;
  Alcotest.check rat "degrade scales c" (q 2) (Dls.Platform.get p' 1).Dls.Platform.c;
  Alcotest.check rat "degrade scales d" Q.one (Dls.Platform.get p' 1).Dls.Platform.d;
  Alcotest.(check (option rat))
    "z preserved" (Dls.Platform.z_ratio (platform3 ()))
    (Dls.Platform.z_ratio p')

(* ------------------------------------------------------------------ *)
(* Online re-planning                                                  *)
(* ------------------------------------------------------------------ *)

let test_replan_no_fault () =
  let sol = Dls.Fifo.optimal (platform3 ()) in
  let load = sol.Dls.Lp_model.rho in
  let o = Dls.Replan.respond_exn Dls.Faults.empty sol ~load in
  (match o.Dls.Replan.decision with
  | Dls.Replan.Keep_original -> ()
  | Dls.Replan.Recover _ -> Alcotest.fail "re-planned without faults");
  Alcotest.check rat "everything on time" load
    o.Dls.Replan.achieved.Dls.Replan.done_by_deadline

let test_replan_crash_recovers () =
  let sol = Dls.Fifo.optimal (platform3 ()) in
  let load = sol.Dls.Lp_model.rho in
  (* The first worker of the return order crashes early: without
     re-planning its load is lost and every later return stays queued
     behind a transfer that never happens. *)
  let victim = sol.Dls.Lp_model.scenario.Dls.Scenario.sigma2.(0) in
  let plan =
    Dls.Faults.make_exn [ Dls.Faults.Crash { worker = victim; at = qq 1 8 } ]
  in
  let o = Dls.Replan.respond_exn plan sol ~load in
  let open Dls.Replan in
  Alcotest.(check bool)
    "never worse than the baseline" true
    (o.achieved.done_by_deadline >=/ o.baseline.done_by_deadline);
  (match o.decision with
  | Keep_original -> Alcotest.fail "early crash should trigger a recovery"
  | Recover r ->
    Alcotest.check rat "accounting closes" load (r.banked +/ r.residual);
    (match Check.Validator.validate_recovery ~deadline:o.deadline r with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "recovery does not validate: %s"
        (String.concat "; "
           (List.map (Check.Validator.violation_to_string r.degraded) vs)));
    Alcotest.(check bool)
      "recovery strictly beats the baseline" true
      (o.achieved.done_by_deadline >/ o.baseline.done_by_deadline))

let test_replan_policy_strings () =
  List.iter
    (fun p ->
      match Dls.Replan.policy_of_string (Dls.Replan.policy_to_string p) with
      | Some p' ->
        Alcotest.(check string)
          "round trip" (Dls.Replan.policy_to_string p)
          (Dls.Replan.policy_to_string p')
      | None -> Alcotest.failf "unparseable %s" (Dls.Replan.policy_to_string p))
    (Dls.Replan.Margin (qq 2 5) :: Dls.Replan.default_policies);
  Alcotest.(check bool)
    "junk rejected" true
    (Dls.Replan.policy_of_string "margin:-1" = None
    && Dls.Replan.policy_of_string "panic" = None)

(* Satellite: same seed, same case — bit-identical plans and decisions. *)
let test_fault_campaign_determinism () =
  List.iter
    (fun regime ->
      for i = 0 to 7 do
        let p1, f1, l1 = Check.Fuzz.fault_case ~seed:42 ~severity:0.7 regime i in
        let p2, f2, l2 = Check.Fuzz.fault_case ~seed:42 ~severity:0.7 regime i in
        Alcotest.(check string)
          "same platform" (Dls.Platform_io.to_string p1)
          (Dls.Platform_io.to_string p2);
        Alcotest.(check string)
          "same faults" (Dls.Faults.to_string f1) (Dls.Faults.to_string f2);
        Alcotest.check rat "same load" l1 l2;
        let render p f l =
          let sol = Dls.Fifo.optimal p in
          Format.asprintf "%a" Dls.Replan.pp_outcome
            (Dls.Replan.respond_exn f sol ~load:l)
        in
        Alcotest.(check string) "same decision" (render p1 f1 l1) (render p2 f2 l2)
      done)
    Check.Fuzz.all_regimes

(* ------------------------------------------------------------------ *)
(* The robustness fuzz matrix                                          *)
(* ------------------------------------------------------------------ *)

let matrix_case regime =
  let name = Printf.sprintf "fault matrix, %s" (Check.Fuzz.regime_to_string regime) in
  Alcotest.test_case name `Slow (fun () ->
      match Check.Fuzz.run_fault_matrix ~count:40 ~severity:0.8 regime with
      | [] -> ()
      | f :: _ as fs ->
        Alcotest.failf "%d failing case(s); first (index %d):\n%s\n%s"
          (List.length fs) f.Check.Fuzz.index
          (String.concat "" (List.map snd f.Check.Fuzz.inputs))
          (String.concat "\n" f.Check.Fuzz.messages))

let test_matrix_jobs_invariant () =
  (* The failure set (here: empty) and the generated cases must not
     depend on the parallelism. *)
  let one = Check.Fuzz.run_fault_matrix ~jobs:1 ~count:12 Check.Fuzz.Small_z in
  let two = Check.Fuzz.run_fault_matrix ~jobs:2 ~count:12 Check.Fuzz.Small_z in
  Alcotest.(check int) "same failure count" (List.length one) (List.length two)

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "roundtrip" `Quick test_plan_roundtrip;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "malformed rejected" `Quick test_plan_rejects_malformed;
          Alcotest.test_case "garbage never raises" `Quick
            test_parser_garbage_never_raises;
        ] );
      ( "integrator",
        [
          Alcotest.test_case "nominal" `Quick test_integrator_nominal;
          Alcotest.test_case "slowdown" `Quick test_integrator_slowdown;
          Alcotest.test_case "stall" `Quick test_integrator_stall;
          Alcotest.test_case "crash" `Quick test_integrator_crash;
          Alcotest.test_case "degraded platform" `Quick test_degraded_platform;
        ] );
      ( "replan",
        [
          Alcotest.test_case "no fault, no change" `Quick test_replan_no_fault;
          Alcotest.test_case "crash recovers" `Quick test_replan_crash_recovers;
          Alcotest.test_case "policy strings" `Quick test_replan_policy_strings;
          Alcotest.test_case "campaign determinism" `Quick
            test_fault_campaign_determinism;
        ] );
      ( "matrix",
        List.map matrix_case Check.Fuzz.all_regimes
        @ [ Alcotest.test_case "jobs invariant" `Quick test_matrix_jobs_invariant ]
      );
    ]
