(* End-to-end integration tests: LP -> schedule -> trace -> simulator
   across the whole stack, plus the exact consistency chain
   Theorem 2 = LP = noise-free simulation. *)

module Q = Numeric.Rational
open Q.Infix

let prop ?(count = 40) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_factors_platform =
  let open QCheck2.Gen in
  let* seed = int_range 0 100_000 in
  let* workers = int_range 2 8 in
  let* n = oneofl [ 40; 80; 120; 200; 400 ] in
  let rng = Numeric.Prng.create ~seed in
  let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
  return (Cluster.Gen.platform Cluster.Workload.gdsdmi ~n f, seed, n)

(* LP -> exact schedule -> float trace -> validation, whole stack. *)
let prop_full_stack_fifo =
  prop "full stack: FIFO LP -> schedule -> trace -> gantt" gen_factors_platform
    (fun (platform, _, _) ->
      let sol = Dls.Fifo.optimal platform in
      let sched = Dls.Schedule.for_load sol ~load:(Q.of_int 1000) in
      (match Dls.Schedule.validate sched with
      | Ok () -> ()
      | Error m -> QCheck2.Test.fail_reportf "schedule: %s" (String.concat ";" m));
      let trace = Sim.Trace.of_schedule sched in
      if not (Sim.Trace.is_valid trace) then
        QCheck2.Test.fail_reportf "trace invalid"
      else begin
        let art = Sim.Gantt.render trace in
        String.length art > 0
      end)

(* Simulated execution of the rounded plan under noise stays a valid
   one-port execution and never beats the LP bound. *)
let prop_noisy_execution_valid =
  prop "noisy simulated campaign is valid and above the LP bound"
    gen_factors_platform (fun (platform, seed, n) ->
      let sol = Dls.Heuristics.solve Dls.Heuristics.Lifo platform in
      let total = 500 in
      let plan = Sim.Star.plan_of_rounded sol ~total in
      let noise = Cluster.Noise.make (Numeric.Prng.create ~seed) ~n in
      let trace = Sim.Star.execute ~noise platform plan in
      let bound = Q.to_float (Dls.Lp_model.time_for_load sol ~load:(Q.of_int total)) in
      Sim.Trace.is_valid trace && trace.Sim.Trace.makespan >= bound *. 0.999)

(* The exact consistency chain on bus platforms:
   Theorem 2 closed form = one-port FIFO LP (exactly), and the
   noise-free simulator reproduces the makespan to float precision. *)
let prop_bus_consistency_chain =
  prop "bus: closed form = LP = simulation"
    (let open QCheck2.Gen in
     let* seed = int_range 0 100_000 in
     let* workers = int_range 1 7 in
     let rng = Numeric.Prng.create ~seed in
     let f = Cluster.Gen.factors rng Cluster.Gen.Hom_comm_het_comp ~workers in
     return (Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:100 f))
    (fun platform ->
      let formula = Dls.Closed_form.fifo_throughput_of_platform platform in
      let sol = Dls.Fifo.optimal platform in
      if not (formula =/ sol.Dls.Lp_model.rho) then
        QCheck2.Test.fail_reportf "closed form %s <> LP %s" (Q.to_string formula)
          (Q.to_string sol.Dls.Lp_model.rho)
      else begin
        let plan = Sim.Star.plan_of_solved sol in
        let trace = Sim.Star.execute platform plan in
        Float.abs (trace.Sim.Trace.makespan -. 1.0) < 1e-6
      end)

(* Time-reversal duality end-to-end: a z > 1 platform solved directly
   and via the mirror construction agree, and the mirrored schedule
   simulates correctly on the original platform. *)
let prop_mirror_end_to_end =
  prop ~count:30 "mirror duality end-to-end"
    (let open QCheck2.Gen in
     let* seed = int_range 0 100_000 in
     let* workers = int_range 1 5 in
     let rng = Numeric.Prng.create ~seed in
     let specs =
       List.init workers (fun _ ->
           ( Q.of_ints (Numeric.Prng.int_range rng ~lo:1 ~hi:10) 10,
             Q.of_ints (Numeric.Prng.int_range rng ~lo:1 ~hi:10) 5 ))
     in
     return (Dls.Platform.with_return_ratio ~z:(Q.of_int 3) specs))
    (fun platform ->
      let direct = Dls.Fifo.optimal platform in
      let m = Dls.Fifo.optimal_via_mirror_exn platform in
      let rho = m.Dls.Fifo.solved.Dls.Lp_model.rho in
      let sched = m.Dls.Fifo.schedule in
      rho =/ direct.Dls.Lp_model.rho
      && Dls.Schedule.validate sched = Ok ()
      && Q.abs (Dls.Schedule.total_load sched -/ rho) =/ Q.zero)

(* The simulator executes the transfer orders it was given: sends follow
   sigma1, returns follow sigma2, even for arbitrary permutation pairs. *)
let prop_sim_respects_orders =
  prop "simulator respects sigma1 and sigma2" gen_factors_platform
    (fun (platform, seed, _) ->
      let nworkers = Dls.Platform.size platform in
      let rng = Numeric.Prng.create ~seed:(seed + 1) in
      let shuffle () =
        let a = Array.init nworkers Fun.id in
        for i = nworkers - 1 downto 1 do
          let j = Numeric.Prng.int_range rng ~lo:0 ~hi:i in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a
      in
      let sigma1 = shuffle () and sigma2 = shuffle () in
      let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.make_exn platform ~sigma1 ~sigma2) in
      let plan = Sim.Star.plan_of_solved sol in
      let trace = Sim.Star.execute platform plan in
      let starts kind order =
        List.filter_map
          (fun i ->
            List.find_opt (fun e -> e.Sim.Trace.kind = kind) (Sim.Trace.events_of trace i)
            |> Option.map (fun e -> e.Sim.Trace.start))
          (Array.to_list order)
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted (starts Sim.Trace.Send sigma1) && sorted (starts Sim.Trace.Return sigma2))

(* The whole heuristic story on one platform: optimal FIFO dominates
   every FIFO heuristic, and brute force confirms it for small p. *)
let prop_heuristic_hierarchy =
  prop ~count:20 "heuristic hierarchy holds end-to-end"
    (let open QCheck2.Gen in
     let* seed = int_range 0 100_000 in
     let rng = Numeric.Prng.create ~seed in
     let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:4 in
     return (Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:120 f))
    (fun platform ->
      let incc = (Dls.Heuristics.solve Dls.Heuristics.Inc_c platform).Dls.Lp_model.rho in
      let incw = (Dls.Heuristics.solve Dls.Heuristics.Inc_w platform).Dls.Lp_model.rho in
      let brute = (Dls.Brute.best_fifo platform).Dls.Lp_model.rho in
      incc =/ brute && incw <=/ incc)

(* Multi-round LP solutions, executed chunk by chunk on the simulator
   with no noise, fill the unit horizon exactly: the LP and the
   simulator agree on the semantics of multi-installment schedules. *)
let prop_multiround_simulation_matches_lp =
  prop ~count:30 "multiround LP = chunked simulation"
    (let open QCheck2.Gen in
     let* seed = int_range 0 100_000 in
     let* workers = int_range 1 4 in
     let* rounds = int_range 1 3 in
     let* with_returns = bool in
     let rng = Numeric.Prng.create ~seed in
     let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
     return (Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:100 f, rounds, with_returns))
    (fun (platform, rounds, with_returns) ->
      let order = Dls.Fifo.order platform in
      match
        Dls.Multiround.solve platform
          (Dls.Multiround.config ~with_returns ~rounds order)
      with
      | Dls.Multiround.Too_slow -> QCheck2.Test.fail_reportf "unexpected Too_slow"
      | Dls.Multiround.Solved s ->
        let plan = Sim.Star.plan_of_multiround s in
        let trace = Sim.Star.execute_multi platform plan in
        if Float.abs (trace.Sim.Trace.makespan -. 1.0) > 1e-6 then
          QCheck2.Test.fail_reportf "makespan %.9f, expected 1.0"
            trace.Sim.Trace.makespan
        else Sim.Trace.one_port_violations trace = [])

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          prop_full_stack_fifo;
          prop_noisy_execution_valid;
          prop_bus_consistency_chain;
          prop_mirror_end_to_end;
          prop_sim_respects_orders;
          prop_heuristic_hierarchy;
          prop_multiround_simulation_matches_lp;
        ] );
    ]
