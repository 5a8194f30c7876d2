module Q = Numeric.Rational
open Q.Infix

type regime = Small_z | Unit_z | Big_z

let all_regimes = [ Small_z; Unit_z; Big_z ]

let regime_to_string = function
  | Small_z -> "z<1"
  | Unit_z -> "z=1"
  | Big_z -> "z>1"

let regime_of_string = function
  | "z<1" -> Some Small_z
  | "z=1" -> Some Unit_z
  | "z>1" -> Some Big_z
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Platform generation                                                 *)
(* ------------------------------------------------------------------ *)

let gen_rational rng =
  (* num/den in [1/4, 8]: small numerators keep the exact LPs cheap. *)
  Q.of_ints (1 + Random.State.int rng 8) (1 + Random.State.int rng 4)

let gen_z rng = function
  | Unit_z -> Q.one
  | Small_z ->
    let den = 2 + Random.State.int rng 8 in
    Q.of_ints (1 + Random.State.int rng (den - 1)) den
  | Big_z ->
    let num = 2 + Random.State.int rng 8 in
    Q.of_ints num (1 + Random.State.int rng (num - 1))

let gen_platform rng regime =
  let n = 2 + Random.State.int rng 3 in
  let z = gen_z rng regime in
  let bus = Random.State.int rng 4 = 0 in
  let bus_c = gen_rational rng in
  Dls.Platform.with_return_ratio ~z
    (List.init n (fun _ ->
         let c = if bus then bus_c else gen_rational rng in
         (c, gen_rational rng)))

(* ------------------------------------------------------------------ *)
(* The differential matrix                                             *)
(* ------------------------------------------------------------------ *)

let check_platform ?(fast = false) platform =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let expect_valid label sol =
    (match Validator.validate_solved sol with
    | Ok () -> ()
    | Error vs ->
      List.iter
        (fun v -> add "%s: %s" label (Validator.violation_to_string platform v))
        vs);
    match Certificate.check sol with
    | Ok () -> ()
    | Error msgs -> List.iter (fun m -> add "%s: certificate: %s" label m) msgs
  in
  let rho (sol : Dls.Lp_model.solved) = sol.Dls.Lp_model.rho in
  let fifo = Dls.Fifo.optimal platform in
  let lifo = Dls.Lifo.optimal platform in
  expect_valid "fifo" fifo;
  expect_valid "lifo" lifo;
  (* Two-port relaxes the port constraint: it can only do better. *)
  let two_port = Dls.Fifo.optimal ~model:Dls.Lp_model.Two_port platform in
  if rho two_port </ rho fifo then
    add "two-port optimum %s below one-port optimum %s"
      (Q.to_string (rho two_port)) (Q.to_string (rho fifo));
  (* Heuristic FIFO orders never beat the Theorem 1 order. *)
  List.iter
    (fun h ->
      let sol = Dls.Heuristics.solve h platform in
      expect_valid (Dls.Heuristics.name h) sol;
      match h with
      | Dls.Heuristics.Inc_c | Dls.Heuristics.Inc_w ->
        if rho sol >/ rho fifo then
          add "heuristic %s throughput %s beats the FIFO optimum %s"
            (Dls.Heuristics.name h) (Q.to_string (rho sol)) (Q.to_string (rho fifo))
      | Dls.Heuristics.Lifo ->
        if rho sol <>/ rho lifo then
          add "LIFO heuristic %s disagrees with Lifo.optimal %s"
            (Q.to_string (rho sol)) (Q.to_string (rho lifo)))
    Dls.Heuristics.all;
  (* Exhaustive search over orders: Theorem 1's sorted order must win. *)
  let brute_fifo = Dls.Brute.best_fifo platform in
  if rho brute_fifo <>/ rho fifo then
    add "brute-force FIFO %s differs from Theorem 1 optimum %s"
      (Q.to_string (rho brute_fifo)) (Q.to_string (rho fifo));
  let brute_lifo = Dls.Brute.best_lifo platform in
  if rho brute_lifo <>/ rho lifo then
    add "brute-force LIFO %s differs from sorted LIFO %s"
      (Q.to_string (rho brute_lifo)) (Q.to_string (rho lifo));
  (* Branch-and-bound agrees with brute force. *)
  let search = Dls.Search.best_fifo platform in
  if rho search.Dls.Search.solved <>/ rho brute_fifo then
    add "branch-and-bound FIFO %s differs from brute force %s"
      (Q.to_string (rho search.Dls.Search.solved))
      (Q.to_string (rho brute_fifo));
  (* Regime-specific relations. *)
  (match Dls.Platform.z_ratio platform with
  | None -> add "generator emitted a platform without a uniform return ratio"
  | Some z ->
    if Q.compare z Q.one > 0 then begin
      (* Mirror consistency (the paper's z > 1 argument). *)
      match Dls.Fifo.optimal_via_mirror platform with
      | Error e -> add "mirror construction failed: %s" (Dls.Errors.to_string e)
      | Ok m ->
        if rho m.Dls.Fifo.solved <>/ rho fifo then
          add "mirror throughput %s differs from direct solve %s"
            (Q.to_string (rho m.Dls.Fifo.solved)) (Q.to_string (rho fifo));
        (match Validator.validate m.Dls.Fifo.schedule with
        | Ok () -> ()
        | Error vs ->
          List.iter
            (fun v ->
              add "mirrored schedule: %s" (Validator.violation_to_string platform v))
            vs);
        let total = Dls.Schedule.total_load m.Dls.Fifo.schedule in
        if total <>/ rho fifo then
          add "mirrored schedule carries %s load, expected %s" (Q.to_string total)
            (Q.to_string (rho fifo))
    end
    else if Q.equal z Q.one then begin
      (* z = 1: the sending order is irrelevant. *)
      let identity = Array.init (Dls.Platform.size platform) (fun i -> i) in
      let sol = Dls.Fifo.solve_order platform identity in
      if rho sol <>/ rho fifo then
        add "z = 1 but enrollment order gives %s, sorted order %s"
          (Q.to_string (rho sol)) (Q.to_string (rho fifo))
    end);
  (* Bus platforms: Theorem 2 and the companion two-port closed form. *)
  if Dls.Platform.is_bus platform then begin
    let wk i = Dls.Platform.get platform i in
    let c = (wk 0).Dls.Platform.c and d = (wk 0).Dls.Platform.d in
    let ws =
      Array.init (Dls.Platform.size platform) (fun i -> (wk i).Dls.Platform.w)
    in
    let closed = Dls.Closed_form.fifo_throughput ~c ~d ws in
    if closed <>/ rho fifo then
      add "Theorem 2 closed form %s differs from the LP optimum %s"
        (Q.to_string closed) (Q.to_string (rho fifo));
    let closed2 = Dls.Closed_form.two_port_throughput ~c ~d ws in
    if closed2 <>/ rho two_port then
      add "two-port closed form %s differs from the two-port LP %s"
        (Q.to_string closed2) (Q.to_string (rho two_port))
  end;
  (* Certified fast pipeline: bit-identical to the exact solver on every
     FIFO and every LIFO order, under both port models, with the
     previous optimal basis threaded through as a warm start (exactly
     the way [Brute] uses it), and each fast answer passed through the
     independent certificate again.  These are all the shapes the
     structured FIFO/LIFO certificate covers. *)
  if fast then begin
    let arrays_equal a b =
      Array.length a = Array.length b && Array.for_all2 Q.equal a b
    in
    List.iter
      (fun (model, model_name) ->
        List.iter
          (fun (kind, scenario) ->
            let warm = ref None in
            List.iter
              (fun order ->
                let s = scenario platform order in
                let cold = Dls.Solve.solve_exn ~mode:`Exact ~model s in
                let quick = Dls.Solve.solve_exn ~mode:`Fast ~model ?warm:!warm s in
                warm := Some quick.Dls.Lp_model.basis;
                let where =
                  Printf.sprintf "%s %s order [%s]" model_name kind
                    (String.concat ";" (List.map string_of_int (Array.to_list order)))
                in
                if rho quick <>/ rho cold then
                  add "fast pipeline rho %s differs from exact %s on %s"
                    (Q.to_string (rho quick)) (Q.to_string (rho cold)) where;
                if not (arrays_equal quick.Dls.Lp_model.alpha cold.Dls.Lp_model.alpha)
                then add "fast pipeline loads differ from exact on %s" where;
                if not (arrays_equal quick.Dls.Lp_model.idle cold.Dls.Lp_model.idle)
                then add "fast pipeline idle times differ from exact on %s" where;
                match Certificate.check quick with
                | Ok () -> ()
                | Error msgs ->
                  List.iter (fun m -> add "fast [%s]: certificate: %s" where m) msgs)
              (Dls.Brute.permutations (Dls.Platform.size platform)))
          [ ("fifo", Dls.Scenario.fifo_exn); ("lifo", Dls.Scenario.lifo_exn) ])
      [ (Dls.Lp_model.One_port, "one-port"); (Dls.Lp_model.Two_port, "two-port") ]
  end;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* The matrix driver                                                   *)
(* ------------------------------------------------------------------ *)

type failure = {
  index : int;
  inputs : (string * string) list;
  messages : string list;
}

(* Every matrix: [case i] draws case [i] and returns its labelled
   inputs and its discrepancies.  Cases fan out over the pool; failures
   come back in index order. *)
let run_cases ?jobs count case =
  let check i =
    match case i with
    | _, [] -> None
    | inputs, messages -> Some { index = i; inputs; messages }
  in
  List.filter_map Fun.id
    (Array.to_list (Parallel.Pool.run ?jobs check (Array.init count Fun.id)))

let platform_input platform = ("platform", Dls.Platform_io.to_string platform)

let regime_tag = function Small_z -> 1 | Unit_z -> 2 | Big_z -> 3

let run_matrix ?jobs ?(count = 200) ?(seed = 7) ?(fast = false) regime =
  (* One PRNG per platform, seeded by (seed, regime, index): the matrix
     is reproducible and independent of [jobs]. *)
  run_cases ?jobs count (fun i ->
      let platform =
        gen_platform (Random.State.make [| seed; regime_tag regime; i |]) regime
      in
      ([ platform_input platform ], check_platform ~fast platform))

(* ------------------------------------------------------------------ *)
(* Multi-load differential matrix                                      *)
(* ------------------------------------------------------------------ *)

(* Two loads and 2-3 workers keep the batch LPs (4 variables per chunk,
   H copies) inside exact-simplex comfort. *)
let gen_workload rng regime =
  let gen_load () =
    let size = gen_rational rng in
    let release =
      if Random.State.bool rng then Q.zero
      else Q.of_ints (Random.State.int rng 3) 2
    in
    let z = if Random.State.bool rng then Some (gen_z rng regime) else None in
    Dls.Workload.load ?z ~release ~size ()
  in
  Dls.Workload.make_exn [ gen_load (); gen_load () ]

let gen_multi_platform rng regime =
  let n = 2 + Random.State.int rng 2 in
  let z = gen_z rng regime in
  Dls.Platform.with_return_ratio ~z
    (List.init n (fun _ -> (gen_rational rng, gen_rational rng)))

let zero_releases workload =
  Dls.Workload.make_exn
    (List.map
       (fun (l : Dls.Workload.load) ->
         Dls.Workload.load ~name:l.Dls.Workload.name ?z:l.Dls.Workload.z
           ~size:l.Dls.Workload.size ())
       (Array.to_list workload.Dls.Workload.loads))

let check_multi ?(h = 3) platform workload =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let report_violations label wl = function
    | Ok () -> ()
    | Error vs ->
      List.iter
        (fun v -> add "%s: %s" label (Validator.violation_to_string platform v))
        vs;
      ignore wl
  in
  (match Dls.Steady_state.solve platform workload with
  | Error e -> add "steady-state solve failed: %s" (Dls.Errors.to_string e)
  | Ok steady ->
    report_violations "steady" workload (Validator.validate_steady steady);
    let period = steady.Dls.Steady_state.period in
    (* The naive back-to-back baseline is a periodic scheme too, so the
       optimal period can only be shorter. *)
    (match Dls.Steady_state.naive_makespan platform workload with
    | Error e -> add "naive baseline failed: %s" (Dls.Errors.to_string e)
    | Ok naive ->
      if period >/ naive then
        add "steady period %s exceeds the back-to-back baseline %s"
          (Q.to_string period) (Q.to_string naive));
    (* Two-sided squeeze against the batch LP on a long horizon (release
       dates stripped: the steady LP has none).  Capacity gives
       H*T <= makespan; the periodic window construction lives inside
       the depth-2 port order, so best-over-depths <= (H+2)*T. *)
    let order = Dls.Fifo.order platform in
    let w0 = zero_releases workload in
    let batch_h = Dls.Workload.repeat h w0 in
    (match Dls.Steady_state.solve_batch_best ~max_depth:2 ~order platform batch_h with
    | Error e -> add "batch solve (H=%d) failed: %s" h (Dls.Errors.to_string e)
    | Ok b ->
      report_violations "batch" batch_h (Validator.validate_batch b);
      let m = b.Dls.Steady_state.makespan in
      if Q.of_int h */ period >/ m then
        add "capacity bound violated: %d * period %s > batch makespan %s" h
          (Q.to_string period) (Q.to_string m);
      if m >/ Q.of_int (h + 2) */ period then
        add "batch makespan %s exceeds the periodic bound (%d+2) * %s"
          (Q.to_string m) h (Q.to_string period));
    (* The batch LP with release dates: valid, and never worse than
       back-to-back with the same worker order (that schedule is in the
       depth-0 feasible set). *)
    match Dls.Steady_state.solve_batch_best ~order platform workload with
    | Error e -> add "batch solve failed: %s" (Dls.Errors.to_string e)
    | Ok b ->
      report_violations "batch+releases" workload (Validator.validate_batch b);
      let naive_fixed =
        let seq = Array.to_list b.Dls.Steady_state.sequence in
        List.fold_left
          (fun clock k ->
            match clock with
            | Error _ as e -> e
            | Ok clock ->
              let l = Dls.Workload.get workload k in
              let induced =
                Dls.Workload.induced_platform workload k platform
              in
              let sol = Dls.Fifo.solve_order induced order in
              let span =
                Dls.Lp_model.time_for_load sol ~load:l.Dls.Workload.size
              in
              Ok (Q.max clock l.Dls.Workload.release +/ span))
          (Ok Q.zero) seq
      in
      (match naive_fixed with
      | Error _ -> ()
      | Ok naive_fixed ->
        if b.Dls.Steady_state.makespan >/ naive_fixed then
          add "batch makespan %s exceeds fixed-order back-to-back %s"
            (Q.to_string b.Dls.Steady_state.makespan)
            (Q.to_string naive_fixed)));
  (* Single-load agreement: a one-load batch at depth 0 is exactly the
     paper's LP(2) schedule, makespan [size / rho]. *)
  Array.iteri
    (fun k (l : Dls.Workload.load) ->
      let single =
        Dls.Workload.make_exn
          [ Dls.Workload.load ?z:l.Dls.Workload.z ~size:l.Dls.Workload.size () ]
      in
      let induced = Dls.Workload.induced_platform single 0 platform in
      let order = Dls.Fifo.order induced in
      match Dls.Steady_state.solve_batch ~depth:0 ~order platform single with
      | Error e ->
        add "single-load batch %d failed: %s" k (Dls.Errors.to_string e)
      | Ok b ->
        let sol = Dls.Fifo.solve_order induced order in
        let expected =
          Dls.Lp_model.time_for_load sol ~load:l.Dls.Workload.size
        in
        if b.Dls.Steady_state.makespan <>/ expected then
          add "single-load batch makespan %s differs from LP(2)'s %s (load %d)"
            (Q.to_string b.Dls.Steady_state.makespan)
            (Q.to_string expected) k)
    workload.Dls.Workload.loads;
  List.rev !errs

let run_multi_matrix ?jobs ?(count = 60) ?(seed = 23) ?(h = 3) regime =
  run_cases ?jobs count (fun i ->
      let rng = Random.State.make [| seed; 32 + regime_tag regime; i |] in
      let platform = gen_multi_platform rng regime in
      let workload = gen_workload rng regime in
      ( [ ("workload", Dls.Workload.to_spec workload); platform_input platform ],
        check_multi ~h platform workload ))

(* ------------------------------------------------------------------ *)
(* Fault-injection matrix                                              *)
(* ------------------------------------------------------------------ *)

let check_faulted platform plan ~load =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let sol = Dls.Fifo.optimal platform in
  (match Dls.Replan.respond plan sol ~load with
  | Error e -> add "respond failed: %s" (Dls.Errors.to_string e)
  | Ok outcome ->
    let open Dls.Replan in
    (* The baseline must be exactly the replay of the original schedule
       from date 0 under the whole plan.  That replay runs the same
       exact walk as [respond], so this checks which schedule, start and
       plan the baseline replayed, not the walk (test_sim's "walk" group
       holds the walk to a reference replay). *)
    let original = Dls.Schedule.for_load sol ~load in
    let naive =
      report_of ~deadline:outcome.deadline ~total:load
        (replay_seq platform plan (seq_of_schedule original ~start:Q.zero))
    in
    if naive.done_by_deadline <>/ outcome.baseline.done_by_deadline then
      add "baseline %s disagrees with the no-recovery replay %s"
        (Q.to_string outcome.baseline.done_by_deadline)
        (Q.to_string naive.done_by_deadline);
    (* Never worse than doing nothing. *)
    if outcome.achieved.done_by_deadline </ naive.done_by_deadline then
      add "re-planner achieved %s, worse than the no-recovery baseline %s"
        (Q.to_string outcome.achieved.done_by_deadline)
        (Q.to_string naive.done_by_deadline);
    (* A no-fault plan never triggers a recovery and completes fully. *)
    if Dls.Faults.is_empty plan then begin
      (match outcome.decision with
      | Keep_original -> ()
      | Recover _ -> add "re-planned with an empty fault plan");
      if outcome.achieved.done_by_deadline <>/ load then
        add "no faults, yet only %s of %s done by the deadline"
          (Q.to_string outcome.achieved.done_by_deadline) (Q.to_string load)
    end;
    (match outcome.decision with
    | Keep_original -> ()
    | Recover r -> (
      (* Accounting ties the recovery to the campaign it splices into. *)
      if r.banked +/ r.residual <>/ load then
        add "banked %s + residual %s <> load %s" (Q.to_string r.banked)
          (Q.to_string r.residual) (Q.to_string load);
      (* The spliced schedule must validate exactly against the degraded
         platform — the one-port model holds even while recovering. *)
      match Validator.validate_recovery ~deadline:outcome.deadline r with
      | Ok () -> ()
      | Error vs ->
        List.iter
          (fun v -> add "recovery: %s" (Validator.violation_to_string r.degraded v))
          vs));
    (* Same inputs, same answer: respond is a pure function. *)
    match Dls.Replan.respond plan sol ~load with
    | Error e -> add "second respond failed: %s" (Dls.Errors.to_string e)
    | Ok outcome' ->
      let render o = Format.asprintf "%a" pp_outcome o in
      if render outcome <> render outcome' then
        add "respond is not deterministic on identical inputs");
  List.rev !errs

let fault_case ~seed ~severity regime i =
  let rng = Random.State.make [| seed; 16 + regime_tag regime; i |] in
  let platform = gen_platform rng regime in
  let sol = Dls.Fifo.optimal platform in
  (* Deadlines of 1/2, 1 or 2 time units, so onsets and durations drawn
     by the generator exercise different scales. *)
  let scale = Q.of_ints (1 + Random.State.int rng 4) 2 in
  let load = Q.mul sol.Dls.Lp_model.rho scale in
  let deadline = Dls.Lp_model.time_for_load sol ~load in
  let prng = Numeric.Prng.create ~seed:((seed * 1_000_003) + (regime_tag regime * 4096) + i) in
  let plan =
    Dls.Faults.gen prng ~workers:(Dls.Platform.size platform) ~deadline ~severity
  in
  (platform, plan, load)

let run_fault_matrix ?jobs ?(count = 200) ?(seed = 11) ?(severity = 0.6) regime =
  run_cases ?jobs count (fun i ->
      let platform, plan, load = fault_case ~seed ~severity regime i in
      ( [ platform_input platform; ("faults", Dls.Faults.to_string plan) ],
        check_faulted platform plan ~load ))

(* ------------------------------------------------------------------ *)
(* Re-solve differential matrix                                        *)
(* ------------------------------------------------------------------ *)

let gen_delta rng regime platform =
  let n = Dls.Platform.size platform in
  (* Factors clustered around 1 (1/4 .. 4): the near-duplicate regime,
     where the base's basis most often still certifies.  Larger kicks
     certify or fall back. *)
  let nudge () =
    Q.of_ints (1 + Random.State.int rng 4) (1 + Random.State.int rng 4)
  in
  let shape_preserving () =
    match Random.State.int rng 5 with
    | 0 | 1 ->
      Dls.Delta.Scale_comm
        { worker = Random.State.int rng n; factor = nudge () }
    | 2 | 3 ->
      Dls.Delta.Scale_comp
        { worker = Random.State.int rng n; factor = nudge () }
    | _ -> Dls.Delta.Set_z (gen_z rng regime)
  in
  match Random.State.int rng 8 with
  | 0 ->
    (* Shape change: the neighbour path must refuse (the base's basis
       has the wrong dimension) and the fallback must still agree. *)
    if n > 1 && Random.State.bool rng then
      [ Dls.Delta.Remove_worker (Random.State.int rng n) ]
    else
      let c = gen_rational rng in
      [ Dls.Delta.Add_worker
          (Dls.Platform.worker ~c ~w:(gen_rational rng)
             ~d:(Q.mul (gen_z rng regime) c) ())
      ]
  | 1 -> [ shape_preserving (); shape_preserving () ]
  | _ -> [ shape_preserving () ]

let check_resolve platform delta =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let rho (sol : Dls.Lp_model.solved) = sol.Dls.Lp_model.rho in
  let arrays_equal a b =
    Array.length a = Array.length b && Array.for_all2 Q.equal a b
  in
  let base = Dls.Fifo.optimal platform in
  (match Dls.Delta.apply_scenario base.Dls.Lp_model.scenario delta with
  | Error e -> add "delta rejected: %s" (Dls.Errors.to_string e)
  | Ok scenario' -> (
    let exact = Dls.Solve.solve_exn ~mode:`Exact scenario' in
    match
      Dls.Lp_model.solve_from_neighbor Dls.Lp_model.One_port scenario' base
    with
    | Some repaired ->
      (* A repaired answer carries the full certified-optimum guarantee:
         bit-identical to the exact pipeline, and independently
         certified. *)
      if not (Dls.Delta.preserves_shape delta) then
        add "repair accepted a shape-changing delta";
      if rho repaired <>/ rho exact then
        add "repaired rho %s differs from exact %s"
          (Q.to_string (rho repaired))
          (Q.to_string (rho exact));
      if not (arrays_equal repaired.Dls.Lp_model.alpha exact.Dls.Lp_model.alpha)
      then add "repaired loads differ from exact";
      if not (arrays_equal repaired.Dls.Lp_model.idle exact.Dls.Lp_model.idle)
      then add "repaired idle times differ from exact";
      (match Certificate.check repaired with
      | Ok () -> ()
      | Error msgs -> List.iter (fun m -> add "repaired: certificate: %s" m) msgs)
    | None -> (
      (* Declined — the fallback must agree with the exact answer (it is
         the certified fast pipeline). *)
      let fast = Dls.Solve.solve_exn ~mode:`Fast scenario' in
      if rho fast <>/ rho exact then
        add "fallback rho %s differs from exact %s after declined repair"
          (Q.to_string (rho fast))
          (Q.to_string (rho exact));
      if not (arrays_equal fast.Dls.Lp_model.alpha exact.Dls.Lp_model.alpha)
      then add "fallback loads differ from exact after declined repair")));
  List.rev !errs

let run_resolve_matrix ?jobs ?(count = 100) ?(seed = 13) regime =
  run_cases ?jobs count (fun i ->
      let rng = Random.State.make [| seed; 48 + regime_tag regime; i |] in
      let platform = gen_platform rng regime in
      let delta = gen_delta rng regime platform in
      ( [ ("delta", Dls.Delta.to_spec delta); platform_input platform ],
        check_resolve platform delta ))
