(* Benchmark and reproduction harness.

   Running this executable regenerates, as printed tables, every figure
   of the paper's evaluation section (Figures 8-14) plus the Theorem 2
   cross-check and three ablation studies, then times the library's
   building blocks with Bechamel (one Test.make per figure on top of the
   micro-benchmarks).

   Usage: main.exe [--quick] [--skip-micro] [--only ID] [--jobs N]    *)

module Q = Numeric.Rational
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate every figure                                     *)
(* ------------------------------------------------------------------ *)

let run_experiments ~quick ~jobs ~only =
  let entries =
    match only with
    | Some id -> (
      match Experiments.Registry.find id with
      | e -> [ e ]
      | exception Not_found ->
        Printf.eprintf "unknown experiment %S; known: %s\n" id
          (String.concat ", " (Experiments.Registry.ids ()));
        exit 2)
    | None -> Experiments.Registry.all
  in
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      List.iter Experiments.Report.print
        (e.Experiments.Registry.run ~quick ~jobs);
      Printf.printf "(%s finished in %.1f s)\n\n%!" e.Experiments.Registry.id
        (Unix.gettimeofday () -. t0))
    entries

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let bench_platform workers =
  let rng = Numeric.Prng.create ~seed:99 in
  let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
  Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:120 f

let micro_tests ~jobs =
  let open Bechamel in
  let big_a = Q.of_string "123456789123456789/9876543211" in
  let big_b = Q.of_string "987654321987654321/1234567891" in
  let nat_a = Numeric.Natural.of_string (String.make 120 '7') in
  let nat_b = Numeric.Natural.of_string (String.make 60 '3') in
  let huge_a = Numeric.Natural.of_string (String.make 60000 '7') in
  let huge_b = Numeric.Natural.of_string (String.make 60000 '3') in
  let p4 = bench_platform 4 in
  let p8 = bench_platform 8 in
  let p11 = bench_platform 11 in
  let sol11 = Dls.Fifo.optimal p11 in
  let plan = Sim.Star.plan_of_rounded sol11 ~total:1000 in
  let sched = Dls.Schedule.of_solved sol11 in
  let ws = Array.init 11 (fun i -> Q.of_ints (i + 1) 7) in
  (* Operands the solver actually meets: two link costs of the p=11
     platform, and native-int products on either side of 2^62. *)
  let c0 = (Dls.Platform.get p11 0).Dls.Platform.c in
  let c1 = (Dls.Platform.get p11 1).Dls.Platform.c in
  let z31m = Numeric.Integer.of_int ((1 lsl 31) - 1) in
  let z31p = Numeric.Integer.of_int ((1 lsl 31) + 1) in
  [
    Test.make ~name:"rational add" (Staged.stage (fun () -> Q.add big_a big_b));
    Test.make ~name:"rational mul" (Staged.stage (fun () -> Q.mul big_a big_b));
    Test.make ~name:"rational add, p=11 costs" (Staged.stage (fun () -> Q.add c0 c1));
    Test.make ~name:"rational mul, p=11 costs" (Staged.stage (fun () -> Q.mul c0 c1));
    Test.make ~name:"rational compare, p=11 costs"
      (Staged.stage (fun () -> Q.compare c0 c1));
    Test.make ~name:"integer mul (2^31-1)^2, fits 62 bits"
      (Staged.stage (fun () -> Numeric.Integer.mul z31m z31m));
    Test.make ~name:"integer mul (2^31+1)^2, exceeds 62 bits"
      (Staged.stage (fun () -> Numeric.Integer.mul z31p z31p));
    Test.make ~name:"natural mul 120x60 digits"
      (Staged.stage (fun () -> Numeric.Natural.mul nat_a nat_b));
    Test.make ~name:"natural divmod 120/60 digits"
      (Staged.stage (fun () -> Numeric.Natural.divmod nat_a nat_b));
    Test.make ~name:"natural mul 60000 digits (karatsuba)"
      (Staged.stage (fun () -> Numeric.Natural.mul huge_a huge_b));
    Test.make ~name:"natural mul 60000 digits (schoolbook)"
      (Staged.stage (fun () -> Numeric.Natural.mul_schoolbook huge_a huge_b));
    Test.make ~name:"optimal FIFO LP, 4 workers"
      (Staged.stage (fun () -> Dls.Fifo.optimal p4));
    Test.make ~name:"optimal FIFO LP, 8 workers"
      (Staged.stage (fun () -> Dls.Fifo.optimal p8));
    Test.make ~name:"optimal FIFO LP, 11 workers"
      (Staged.stage (fun () -> Dls.Fifo.optimal p11));
    Test.make ~name:"cached FIFO LP, 11 workers"
      (Staged.stage (fun () ->
           Dls.Solve.solve ~mode:`Cached
             (Dls.Scenario.fifo_exn p11 (Dls.Fifo.order p11))));
    Test.make ~name:"float simplex, same 11-worker LP"
      (Staged.stage
         (let lp =
            Dls.Lp_model.problem Dls.Lp_model.One_port
              (Dls.Scenario.fifo_exn p11 (Dls.Fifo.order p11))
          in
          fun () -> Simplex.Float_solver.solve lp));
    Test.make ~name:"optimal LIFO LP, 11 workers"
      (Staged.stage (fun () -> Dls.Lifo.optimal p11));
    Test.make ~name:"Theorem 2 closed form, 11 workers"
      (Staged.stage (fun () ->
           Dls.Closed_form.fifo_throughput ~c:(Q.of_ints 1 5) ~d:(Q.of_ints 1 10) ws));
    Test.make ~name:"schedule build + validate"
      (Staged.stage (fun () ->
           Dls.Schedule.validate (Dls.Schedule.of_solved sol11)));
    Test.make ~name:"simulate 1000-item campaign"
      (Staged.stage (fun () -> Sim.Star.execute p11 plan));
    Test.make ~name:"gantt render"
      (Staged.stage (fun () -> Sim.Gantt.render_schedule sched));
    Test.make ~name:"brute force best FIFO, 4 workers"
      (Staged.stage (fun () -> Dls.Brute.best_fifo p4));
    Test.make
      ~name:(Printf.sprintf "brute force best FIFO, 4 workers, %d jobs" jobs)
      (Staged.stage (fun () -> Dls.Brute.best_fifo ~jobs p4));
    Test.make ~name:"B&B search best FIFO, 8 workers"
      (Staged.stage (fun () -> Dls.Search.best_fifo p8));
    Test.make
      ~name:(Printf.sprintf "B&B search best FIFO, 8 workers, %d jobs" jobs)
      (Staged.stage (fun () -> Dls.Search.best_fifo ~jobs p8));
    Test.make ~name:"multi-round LP, 4 workers x 4 rounds"
      (Staged.stage (fun () ->
           Dls.Multiround.solve p4
             (Dls.Multiround.config ~rounds:4 (Dls.Fifo.order p4))));
  ]

let figure_tests ~jobs =
  let open Bechamel in
  [
    Test.make ~name:"fig8 harness" (Staged.stage (fun () -> Experiments.Fig8.run ()));
    Test.make ~name:"fig9 harness" (Staged.stage (fun () -> Experiments.Fig9.run ~jobs ()));
    Test.make ~name:"fig10 harness (quick)"
      (Staged.stage (fun () -> Experiments.Sweep.run ~quick:true ~jobs Experiments.Sweep.fig10));
    Test.make ~name:"fig11 harness (quick)"
      (Staged.stage (fun () -> Experiments.Sweep.run ~quick:true ~jobs Experiments.Sweep.fig11));
    Test.make ~name:"fig12 harness (quick)"
      (Staged.stage (fun () -> Experiments.Sweep.run ~quick:true ~jobs Experiments.Sweep.fig12));
    Test.make ~name:"fig13a harness (quick)"
      (Staged.stage (fun () -> Experiments.Sweep.run ~quick:true ~jobs Experiments.Sweep.fig13a));
    Test.make ~name:"fig13b harness (quick)"
      (Staged.stage (fun () -> Experiments.Sweep.run ~quick:true ~jobs Experiments.Sweep.fig13b));
    Test.make ~name:"fig14 harness"
      (Staged.stage (fun () -> (Experiments.Fig14.run ~x:1 (), Experiments.Fig14.run ~x:3 ())));
  ]

let run_bechamel ~name tests ~quota_s =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second quota_s)
      ~stabilize:false ~compaction:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name tests) in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) rows in
  Printf.printf "== bechamel: %s ==\n" name;
  Printf.printf "  %-45s %14s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (k, ols_result) ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      let pretty =
        if time_ns >= 1e9 then Printf.sprintf "%8.3f  s" (time_ns /. 1e9)
        else if time_ns >= 1e6 then Printf.sprintf "%8.3f ms" (time_ns /. 1e6)
        else if time_ns >= 1e3 then Printf.sprintf "%8.3f us" (time_ns /. 1e3)
        else Printf.sprintf "%8.1f ns" time_ns
      in
      Printf.printf "  %-45s %14s %8s\n" k pretty
        (match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"))
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 3: solver-pipeline regression benchmark (BENCH_solvers.json)    *)
(* ------------------------------------------------------------------ *)

(* Exact-baseline vs certified-fast enumeration on deterministic
   platforms, p in {5,6,7} (quick: {4,5}), all three z regimes.  Timing
   is warmup + median-of-k; each measured run starts from a cold LP
   cache so both arms do the same work.  Results land in a
   machine-readable JSON file so later PRs can regress against it. *)

let solver_platform ~p ~regime ~z =
  let rng = Numeric.Prng.create ~seed:(7901 + (97 * p) + regime) in
  let specs =
    List.init p (fun _ ->
        let c = Q.of_ints (Numeric.Prng.int_range rng ~lo:2 ~hi:9) 4 in
        let w = Q.of_ints (Numeric.Prng.int_range rng ~lo:4 ~hi:20) 2 in
        (c, w))
  in
  Dls.Platform.with_return_ratio ~z specs

type solver_arm = {
  median_s : float;
  rho : Q.t;
  lps : int;
  cache_hits : int;
  float_wins : int;
  warm_wins : int;
  fallbacks : int;
  pruned : int;
  float_pivots : int;
  exact_pivots : int;
}

let median samples =
  let s = Array.copy samples in
  Array.sort compare s;
  s.(Array.length s / 2)

(* [f] must be a pure solve; the cache is reset around it here so every
   run is cold. *)
let run_solver_arm ~k ~warmup f =
  let once () =
    Dls.Lp_model.reset_cache ();
    f ()
  in
  for _ = 1 to warmup do
    ignore (once ())
  done;
  let samples =
    Array.init k (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (once ());
        Unix.gettimeofday () -. t0)
  in
  (* One more instrumented run for the counters (the run is
     deterministic, so it does exactly what the timed ones did). *)
  Dls.Lp_model.reset_pipeline_stats ();
  let sol = once () in
  let ps = Dls.Lp_model.pipeline_stats () in
  let cs = Dls.Lp_model.cache_stats () in
  Dls.Lp_model.reset_pipeline_stats ();
  {
    median_s = median samples;
    rho = sol.Dls.Lp_model.rho;
    lps = cs.Parallel.Lru.misses;
    cache_hits = cs.Parallel.Lru.hits;
    float_wins = ps.Dls.Lp_model.float_wins;
    warm_wins = ps.Dls.Lp_model.warm_wins;
    fallbacks = ps.Dls.Lp_model.exact_fallbacks;
    pruned = ps.Dls.Lp_model.pruned;
    float_pivots = ps.Dls.Lp_model.float_pivots;
    exact_pivots = ps.Dls.Lp_model.exact_pivots;
  }

let solver_arm_json a =
  Printf.sprintf
    "{\"median_s\": %.6f, \"lps\": %d, \"cache_hits\": %d, \"float_wins\": %d, \
     \"warm_wins\": %d, \"exact_fallbacks\": %d, \"pruned\": %d, \
     \"float_pivots\": %d, \"exact_pivots\": %d}"
    a.median_s a.lps a.cache_hits a.float_wins a.warm_wins a.fallbacks a.pruned
    a.float_pivots a.exact_pivots

let run_solver_bench ~quick ~k ~warmup ~json_path ~gate =
  let ps = if quick then [ 4; 5 ] else [ 5; 6; 7 ] in
  let regimes = [ ("z<1", Q.of_ints 1 2); ("z=1", Q.one); ("z>1", Q.of_int 2) ] in
  Printf.printf "== solver pipeline: exact baseline vs certified fast ==\n";
  Printf.printf "  (best_fifo over all p! orders; median of %d after %d warmup)\n"
    k warmup;
  Printf.printf "  %-4s %-4s %12s %12s %9s %9s %9s %9s\n" "p" "z" "exact" "fast"
    "speedup" "fallback%" "pruned" "warm";
  let points = ref [] in
  List.iter
    (fun p ->
      List.iteri
        (fun ri (rname, z) ->
          let platform = solver_platform ~p ~regime:ri ~z in
          let exact =
            run_solver_arm ~k ~warmup (fun () ->
                Dls.Brute.best_fifo ~fast:false ~prune:false platform)
          in
          let fast =
            run_solver_arm ~k ~warmup (fun () -> Dls.Brute.best_fifo platform)
          in
          if not (Q.equal exact.rho fast.rho) then begin
            Printf.eprintf
              "FATAL: fast pipeline diverged from exact baseline (p=%d, %s)\n"
              p rname;
            exit 3
          end;
          let speedup = exact.median_s /. Float.max 1e-9 fast.median_s in
          let solves = fast.float_wins + fast.warm_wins + fast.fallbacks in
          Printf.printf
            "  %-4d %-4s %9.1f ms %9.1f ms %8.2fx %8.1f%% %9d %9d\n%!" p rname
            (exact.median_s *. 1e3) (fast.median_s *. 1e3) speedup
            (100.0 *. float fast.fallbacks /. float (max 1 solves))
            fast.pruned fast.warm_wins;
          points :=
            Printf.sprintf
              "    {\"case\": \"best_fifo\", \"p\": %d, \"regime\": \"%s\", \
               \"speedup\": %.3f,\n\
              \     \"exact\": %s,\n\
              \     \"fast\": %s}"
              p rname speedup (solver_arm_json exact) (solver_arm_json fast)
            :: !points)
        regimes)
    ps;
  let gate_pass = ref true in
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"dls-bench-solvers/1\",\n\
      \  \"k\": %d,\n\
      \  \"warmup\": %d,\n\
      \  \"quick\": %b,\n\
      \  \"points\": [\n%s\n  ]\n}\n"
      k warmup quick
      (String.concat ",\n" (List.rev !points))
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" json_path;
  if gate then begin
    (* Regression gate: remeasure the smallest case (the most stable one
       on shared CI hardware) and require the fast pipeline to win. *)
    let p = List.hd ps in
    let platform = solver_platform ~p ~regime:0 ~z:(Q.of_ints 1 2) in
    let exact =
      run_solver_arm ~k ~warmup (fun () ->
          Dls.Brute.best_fifo ~fast:false ~prune:false platform)
    in
    let fast =
      run_solver_arm ~k ~warmup (fun () -> Dls.Brute.best_fifo platform)
    in
    if fast.median_s > exact.median_s then begin
      Printf.eprintf
        "GATE FAILED: fast pipeline slower than exact baseline on smoke case \
         (p=%d: %.1f ms vs %.1f ms)\n"
        p (fast.median_s *. 1e3) (exact.median_s *. 1e3);
      gate_pass := false
    end
    else
      Printf.printf "  gate: fast %.1f ms <= exact %.1f ms on p=%d smoke case\n%!"
        (fast.median_s *. 1e3) (exact.median_s *. 1e3) p
  end;
  !gate_pass

(* ------------------------------------------------------------------ *)
(* Part 4: robustness benchmark (BENCH_robustness.json)                *)
(* ------------------------------------------------------------------ *)

(* Recovered vs unrecovered completion under seeded fault plans: the
   fault-case generator of [Check.Fuzz] drives the online re-planner
   across a severity sweep and all three return-ratio regimes, and we
   record how much of the campaign the no-recovery continuation lands by
   the deadline versus the hedged decision of [Dls.Replan.respond].
   Everything depends only on the seed, so the JSON is reproducible. *)

module R = Dls.Replan

type robustness_cell = {
  severity : float;
  regime : string;
  r_cases : int;
  unrecovered : float;  (** mean fraction of load done by deadline, no recovery *)
  recovered : float;  (** same, under the chosen decision *)
  unrecovered_tp : float;  (** mean throughput (load/deadline) by deadline *)
  recovered_tp : float;
  recoveries : int;  (** cases where a recovery schedule was spliced *)
}

let robustness_cell ~seed ~severity ~cases regime =
  let rname = Check.Fuzz.regime_to_string regime in
  let sum_u = ref 0.0 and sum_r = ref 0.0 in
  let sum_utp = ref 0.0 and sum_rtp = ref 0.0 in
  let recoveries = ref 0 in
  for i = 0 to cases - 1 do
    let platform, plan, load = Check.Fuzz.fault_case ~seed ~severity regime i in
    let sol = Dls.Fifo.optimal platform in
    let o = R.respond_exn plan sol ~load in
    let frac (r : R.report) = Q.to_float (Q.div r.R.done_by_deadline r.R.total) in
    let tp (r : R.report) =
      Q.to_float (Q.div r.R.done_by_deadline r.R.deadline)
    in
    (* Sanity: the hedged decision must never lose to the baseline. *)
    if Q.sign (Q.sub o.R.achieved.R.done_by_deadline
                 o.R.baseline.R.done_by_deadline) < 0 then begin
      Printf.eprintf
        "FATAL: re-planner lost to no-recovery (severity %.2f, %s, case %d)\n"
        severity rname i;
      exit 3
    end;
    sum_u := !sum_u +. frac o.R.baseline;
    sum_r := !sum_r +. frac o.R.achieved;
    sum_utp := !sum_utp +. tp o.R.baseline;
    sum_rtp := !sum_rtp +. tp o.R.achieved;
    match o.R.decision with
    | R.Recover _ -> incr recoveries
    | R.Keep_original -> ()
  done;
  let n = float (max 1 cases) in
  {
    severity;
    regime = rname;
    r_cases = cases;
    unrecovered = !sum_u /. n;
    recovered = !sum_r /. n;
    unrecovered_tp = !sum_utp /. n;
    recovered_tp = !sum_rtp /. n;
    recoveries = !recoveries;
  }

let robustness_cell_json c =
  Printf.sprintf
    "    {\"severity\": %.2f, \"regime\": \"%s\", \"cases\": %d,\n\
    \     \"unrecovered_frac\": %.6f, \"recovered_frac\": %.6f,\n\
    \     \"unrecovered_throughput\": %.6f, \"recovered_throughput\": %.6f,\n\
    \     \"recoveries\": %d}"
    c.severity c.regime c.r_cases c.unrecovered c.recovered c.unrecovered_tp
    c.recovered_tp c.recoveries

let run_robustness_bench ~quick ~cases ~seed ~json_path =
  let severities = [ 0.25; 0.5; 0.75; 1.0 ] in
  let cases = if quick then min cases 6 else cases in
  Printf.printf "== robustness: recovered vs unrecovered under faults ==\n";
  Printf.printf
    "  (%d seeded fault cases per severity x regime, seed %d; fractions are\n\
    \   mean load completed by the fault-free deadline)\n"
    cases seed;
  Printf.printf "  %-9s %-4s %12s %12s %10s %10s\n" "severity" "z" "unrecovered"
    "recovered" "gain" "recovered%";
  let cells =
    List.concat_map
      (fun severity ->
        List.map
          (fun regime ->
            let c = robustness_cell ~seed ~severity ~cases regime in
            Printf.printf "  %-9.2f %-4s %11.1f%% %11.1f%% %9.1f%% %9.0f%%\n%!"
              c.severity c.regime (100.0 *. c.unrecovered)
              (100.0 *. c.recovered)
              (100.0 *. (c.recovered -. c.unrecovered))
              (100.0 *. float c.recoveries /. float (max 1 c.r_cases));
            c)
          Check.Fuzz.all_regimes)
      severities
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"dls-bench-robustness/1\",\n\
      \  \"seed\": %d,\n\
      \  \"cases_per_cell\": %d,\n\
      \  \"quick\": %b,\n\
      \  \"points\": [\n%s\n  ]\n}\n"
      seed cases quick
      (String.concat ",\n" (List.map robustness_cell_json cells))
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" json_path

(* ------------------------------------------------------------------ *)
(* Part 6: multi-load steady state vs back-to-back (BENCH_multiload.json) *)
(* ------------------------------------------------------------------ *)

(* Deterministic platforms and a fixed two-load mix: the point is not
   statistics but the structural claim that the steady-state LP
   overlaps returns of one load with sends of the next, which the
   back-to-back baseline cannot.  All three z-regimes, two platform
   sizes; the batch LP on H zero-release copies sits between the two
   (capacity squeeze), pinning the numbers down. *)

type multiload_cell = {
  ml_p : int;
  ml_z : string;
  ml_h : int;
  ml_period : Q.t;
  ml_naive : Q.t;  (* back-to-back time for one mix *)
  ml_batch : Q.t;  (* batch makespan for H copies, best depth <= 2 *)
  ml_steady_tp : float;  (* load units per time unit *)
  ml_naive_tp : float;
  ml_batch_tp : float;
  ml_improvement : float;  (* steady over naive *)
}

let multiload_cell ~h p (ml_z, z) =
  let cs = [| Q.one; Q.of_ints 1 2; Q.of_int 2; Q.of_ints 3 4 |] in
  let ws = [| Q.of_int 2; Q.of_int 3; Q.of_ints 3 2; Q.of_ints 5 2 |] in
  let platform =
    Dls.Platform.with_return_ratio ~z
      (List.init p (fun i -> (cs.(i), ws.(i))))
  in
  let workload =
    Dls.Workload.make_exn
      [
        Dls.Workload.load ~size:(Q.of_int 5) ();
        Dls.Workload.load ~size:(Q.of_int 3) ();
      ]
  in
  let total = Dls.Workload.total_size workload in
  let steady = Dls.Steady_state.solve_exn platform workload in
  let naive =
    Dls.Errors.get_exn (Dls.Steady_state.naive_makespan platform workload)
  in
  let batch =
    Dls.Errors.get_exn
      (Dls.Steady_state.solve_batch_best ~max_depth:2 platform
         (Dls.Workload.repeat h workload))
  in
  let tp time = Q.to_float (Q.div total time) in
  let period = steady.Dls.Steady_state.period in
  {
    ml_p = p;
    ml_z;
    ml_h = h;
    ml_period = period;
    ml_naive = naive;
    ml_batch = batch.Dls.Steady_state.makespan;
    ml_steady_tp = tp period;
    ml_naive_tp = tp naive;
    ml_batch_tp =
      Q.to_float
        (Q.div (Q.mul (Q.of_int h) total) batch.Dls.Steady_state.makespan);
    ml_improvement = Q.to_float (Q.div naive period);
  }

let multiload_cell_json c =
  Printf.sprintf
    "    { \"p\": %d, \"z\": %S, \"h\": %d, \"period\": %S, \"naive\": %S, \
     \"batch_makespan\": %S, \"steady_tp\": %.6f, \"naive_tp\": %.6f, \
     \"batch_tp\": %.6f, \"improvement\": %.4f }"
    c.ml_p c.ml_z c.ml_h (Q.to_string c.ml_period) (Q.to_string c.ml_naive)
    (Q.to_string c.ml_batch) c.ml_steady_tp c.ml_naive_tp c.ml_batch_tp
    c.ml_improvement

let run_multiload_bench ~quick ~json_path ~gate =
  let h = if quick then 2 else 3 in
  let ps = if quick then [ 3 ] else [ 3; 4 ] in
  let regimes = [ ("1/2", Q.of_ints 1 2); ("1", Q.one); ("2", Q.of_int 2) ] in
  Printf.printf
    "=== multi-load: steady state vs back-to-back (mix 5+3, H=%d) ===\n\n%!" h;
  let cells =
    List.concat_map
      (fun p -> List.map (multiload_cell ~h p) regimes)
      ps
  in
  Printf.printf "  %-3s %-4s %12s %12s %12s %11s\n%!" "p" "z" "steady tp"
    "naive tp" "batch tp" "improvement";
  List.iter
    (fun c ->
      Printf.printf "  %-3d %-4s %12.4f %12.4f %12.4f %10.2fx\n%!" c.ml_p
        c.ml_z c.ml_steady_tp c.ml_naive_tp c.ml_batch_tp c.ml_improvement)
    cells;
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"dls-bench-multiload/1\",\n\
      \  \"quick\": %b,\n\
      \  \"mix\": \"5:0,3:0\",\n\
      \  \"h\": %d,\n\
      \  \"cells\": [\n%s\n  ]\n\
       }\n"
      quick h
      (String.concat ",\n" (List.map multiload_cell_json cells))
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" json_path;
  let gate_pass = List.exists (fun c -> c.ml_improvement > 1.0) cells in
  if gate && not gate_pass then
    Printf.printf
      "  gate: FAIL - steady state never beats back-to-back on any regime\n%!"
  else if gate then begin
    let best =
      List.fold_left (fun acc c -> Float.max acc c.ml_improvement) 0. cells
    in
    Printf.printf "  gate: steady state beats back-to-back (best %.2fx)\n%!"
      best
  end;
  (not gate) || gate_pass

(* ------------------------------------------------------------------ *)
(* Part 8: pool scaling benchmark (BENCH_pool.json)                    *)
(* ------------------------------------------------------------------ *)

(* Two checks on the work-stealing pool:

   1. bit identity — [Parallel.Pool.map] with chunk=1 (every task a
      separate claim, so stealing is exercised) must equal the
      sequential map, for jobs in {1,2,4,8} x {uniform, skewed}
      per-task cost.  A mismatch exits 3.

   2. dispatch scaling — the server with [dispatchers] 4 vs 1 on the
      skewed loadgen mix (the traffic shape sharding exists for), same
      stream, same pool size, artificial per-evaluation delay so round
      concurrency rather than LP time is what's measured. *)

(* Integer spin whose result feeds the output array: nothing for the
   compiler to hoist or dead-code away. *)
let pool_spin c x =
  let acc = ref x in
  for i = 1 to c do
    acc := Sys.opaque_identity ((!acc * 31) + i)
  done;
  !acc

(* Uniform: every task costs the same.  Skewed: a hot head of heavy
   tasks over a cheap tail, the shape that strands a static partition
   and makes idle workers steal. *)
let pool_costs ~mix ~tasks =
  match mix with
  | "uniform" -> Array.make tasks 120
  | _ -> Array.init tasks (fun i -> if i mod 64 = 0 then 4_000 else 60)

let check_pool_identity ~tasks ~mix jobs =
  let costs = pool_costs ~mix ~tasks in
  let input = Array.init tasks (fun i -> i) in
  let f i = pool_spin costs.(i) i in
  let got =
    Parallel.Pool.with_pool ~jobs (fun ws -> Parallel.Pool.map ~chunk:1 ws f input)
  in
  if got <> Array.map f input then begin
    Printf.eprintf "bench: ws pool map differs from sequential (jobs=%d mix=%s)\n"
      jobs mix;
    exit 3
  end

type dispatch_arm = {
  dp_dispatchers : int;
  dp_rps : float;
  dp_ok : int;
  dp_steals : int;
}

let run_dispatch_arm ~k ~jobs ~dispatchers ~requests ~connections =
  Dls.Lp_model.reset_cache ();
  let path = Filename.temp_file "dls-bench-pool" ".sock" in
  Sys.remove path;
  let cfg =
    {
      (Service.Server.default_config (Service.Server.Unix_socket path)) with
      Service.Server.jobs;
      dispatchers;
      queue_capacity = max 64 connections;
      max_batch = 8;
      (* Per-evaluation sleep makes the round latency uniform across
         arms, so the measurement isolates how many dispatch rounds can
         be in flight — the thing sharding changes. *)
      worker_delay = 0.002;
    }
  in
  let server =
    match Service.Server.start cfg with
    | Ok s -> s
    | Error e ->
      Printf.eprintf "bench: service start failed: %s\n" (Dls.Errors.to_string e);
      exit 2
  in
  let one () =
    match
      Service.Loadgen.run (Service.Server.address server) ~skew:1.5
        ~connections ~requests ~seed:11 ~distinct:8 ()
    with
    | Error e ->
      Printf.eprintf "bench: loadgen failed: %s\n" (Dls.Errors.to_string e);
      exit 2
    | Ok o when o.Service.Loadgen.ok <> requests ->
      Printf.eprintf
        "bench: dispatch arm d=%d dropped requests (ok=%d/%d overloaded=%d \
         timeouts=%d failed=%d)\n"
        dispatchers o.Service.Loadgen.ok requests
        o.Service.Loadgen.overloaded o.Service.Loadgen.timeouts
        o.Service.Loadgen.failed;
      exit 2
    | Ok o -> o
  in
  ignore (one ());
  let runs = Array.init (max 1 k) (fun _ -> one ()) in
  let stats = Service.Server.stats server in
  Service.Server.stop server;
  {
    dp_dispatchers = dispatchers;
    (* Best sustained run, same estimator for both arms: short loadgen
       bursts see the same scheduler noise as the map cells. *)
    dp_rps =
      Array.fold_left
        (fun acc o -> Float.max acc o.Service.Loadgen.rps)
        0. runs;
    dp_ok = requests;
    dp_steals = stats.Service.Protocol.steals;
  }

let dispatch_arm_json a =
  Printf.sprintf
    "    { \"dispatchers\": %d, \"throughput_rps\": %.1f, \"ok\": %d, \
     \"steals\": %d }"
    a.dp_dispatchers a.dp_rps a.dp_ok a.dp_steals

let run_pool_bench ~quick ~k ~json_path ~gate =
  (* Cheap enough (a few seconds) to run at full size even in quick
     mode — shrinking it just makes the best-of estimator noisy and the
     gate flaky. *)
  let tasks = 8192 in
  let jobs_cells = [ 1; 2; 4; 8 ] and mixes = [ "uniform"; "skewed" ] in
  let requests, connections = (240, 16) in
  Printf.printf
    "=== pool scaling (work-stealing bit identity, sharded dispatch) ===\n\
     (%d tasks, chunk=1; %d requests over %d connections, skew 1.5)\n\n%!"
    tasks requests connections;
  List.iter
    (fun mix -> List.iter (check_pool_identity ~tasks ~mix) jobs_cells)
    mixes;
  Printf.printf "  ws pool map bit-identical to sequential on %d cells\n%!"
    (List.length jobs_cells * List.length mixes);
  let dispatch_jobs = 8 in
  let single =
    run_dispatch_arm ~k ~jobs:dispatch_jobs ~dispatchers:1 ~requests
      ~connections
  in
  let sharded =
    run_dispatch_arm ~k ~jobs:dispatch_jobs ~dispatchers:4 ~requests
      ~connections
  in
  Printf.printf "\n  %-22s %10.1f req/s  steals %d\n%!" "1 dispatcher"
    single.dp_rps single.dp_steals;
  Printf.printf "  %-22s %10.1f req/s  steals %d  (%.2fx)\n%!" "4 dispatchers"
    sharded.dp_rps sharded.dp_steals
    (sharded.dp_rps /. Float.max 1e-9 single.dp_rps);
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"dls-bench-pool/2\",\n\
      \  \"quick\": %b,\n\
      \  \"k\": %d,\n\
      \  \"identity\": { \"tasks\": %d, \"chunk\": 1, \"jobs\": [%s], \
       \"mixes\": [%s] },\n\
      \  \"dispatch\": {\n\
      \    \"jobs\": %d,\n\
      \    \"requests\": %d,\n\
      \    \"connections\": %d,\n\
      \    \"skew\": 1.5,\n\
      \    \"arms\": [\n%s\n    ]\n\
      \  }\n\
       }\n"
      quick k tasks
      (String.concat ", " (List.map string_of_int jobs_cells))
      (String.concat ", " (List.map (Printf.sprintf "%S") mixes))
      dispatch_jobs requests connections
      (String.concat ",\n"
         (List.map (fun a -> "  " ^ dispatch_arm_json a) [ single; sharded ]))
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" json_path;
  (* Gate: the sharded dispatch path must at least match the single
     dispatcher on the skewed mix. *)
  let gate_pass = sharded.dp_rps >= single.dp_rps in
  if gate && not gate_pass then
    Printf.eprintf
      "GATE FAILED: 4 dispatchers slower than 1 on the skewed mix (%.1f \
       req/s vs %.1f req/s)\n"
      sharded.dp_rps single.dp_rps
  else if gate then
    Printf.printf "  gate: 4 dispatchers %.1f >= 1 dispatcher %.1f req/s\n%!"
      sharded.dp_rps single.dp_rps;
  (not gate) || gate_pass

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let main quick skip_micro only jobs solvers_only solvers_json bench_k warmup
    solvers_gate robustness_only robustness_json robustness_cases
    multiload_only multiload_json multiload_gate pool_only pool_json pool_gate =
  Printf.printf
    "One-port FIFO divisible-load scheduling - reproduction harness\n\
     (Beaumont, Marchal, Rehn, Robert, RR-5738, 2005)%s\n\n%!"
    (if quick then " [quick mode]" else "");
  if robustness_only then
    run_robustness_bench ~quick ~cases:robustness_cases ~seed:2026
      ~json_path:robustness_json
  else if multiload_only then begin
    if not (run_multiload_bench ~quick ~json_path:multiload_json ~gate:multiload_gate)
    then exit 1
  end
  else if pool_only then begin
    if
      not
        (run_pool_bench ~quick ~k:bench_k ~json_path:pool_json
           ~gate:pool_gate)
    then exit 1
  end
  else if solvers_only then begin
    if
      not
        (run_solver_bench ~quick ~k:bench_k ~warmup ~json_path:solvers_json
           ~gate:solvers_gate)
    then exit 1
  end
  else begin
    run_experiments ~quick ~jobs ~only;
    if not skip_micro then begin
      run_bechamel ~name:"components" (micro_tests ~jobs) ~quota_s:0.5;
      run_bechamel ~name:"figures" (figure_tests ~jobs) ~quota_s:1.0
    end;
    let gate_pass =
      run_solver_bench ~quick ~k:bench_k ~warmup ~json_path:solvers_json
        ~gate:solvers_gate
    in
    run_robustness_bench ~quick ~cases:robustness_cases ~seed:2026
      ~json_path:robustness_json;
    let multiload_pass =
      run_multiload_bench ~quick ~json_path:multiload_json ~gate:multiload_gate
    in
    let pool_pass =
      run_pool_bench ~quick ~k:bench_k ~json_path:pool_json
        ~gate:pool_gate
    in
    if not (gate_pass && multiload_pass && pool_pass) then
      exit 1
  end

let () =
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shrink every sweep for a fast smoke run.")
  in
  let skip_micro_arg =
    Arg.(
      value & flag
      & info [ "skip-micro" ] ~doc:"Skip the Bechamel micro-benchmarks.")
  in
  let only_arg =
    let doc =
      Printf.sprintf "Run a single experiment; one of: %s."
        (String.concat ", " (Experiments.Registry.ids ()))
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for parallel evaluation (default: number of cores). \
       Figure output is bit-identical to $(b,--jobs=1)."
    in
    Arg.(
      value
      & opt int (Parallel.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let solvers_only_arg =
    Arg.(
      value & flag
      & info [ "solvers-only" ]
          ~doc:"Run only the solver-pipeline benchmark (Part 3).")
  in
  let solvers_json_arg =
    Arg.(
      value
      & opt string "BENCH_solvers.json"
      & info [ "solvers-json" ] ~docv:"FILE"
          ~doc:"Where to write the solver-pipeline benchmark JSON.")
  in
  let bench_k_arg =
    Arg.(
      value & opt int 3
      & info [ "bench-k" ] ~docv:"K"
          ~doc:"Timed repetitions per solver-benchmark point (median is kept).")
  in
  let warmup_arg =
    Arg.(
      value & opt int 1
      & info [ "warmup" ] ~docv:"N"
          ~doc:"Untimed warmup runs before each solver-benchmark point.")
  in
  let solvers_gate_arg =
    Arg.(
      value & flag
      & info [ "solvers-gate" ]
          ~doc:
            "Exit non-zero if the certified fast pipeline is slower than the \
             exact baseline on the smoke case.")
  in
  let robustness_only_arg =
    Arg.(
      value & flag
      & info [ "robustness-only" ]
          ~doc:"Run only the fault-recovery robustness benchmark (Part 4).")
  in
  let robustness_json_arg =
    Arg.(
      value
      & opt string "BENCH_robustness.json"
      & info [ "robustness-json" ] ~docv:"FILE"
          ~doc:"Where to write the robustness benchmark JSON.")
  in
  let robustness_cases_arg =
    Arg.(
      value & opt int 18
      & info [ "robustness-cases" ] ~docv:"N"
          ~doc:
            "Seeded fault cases per severity x regime cell of the robustness \
             benchmark.")
  in
  let multiload_only_arg =
    Arg.(
      value & flag
      & info [ "multiload-only" ]
          ~doc:"Run only the multi-load steady-state benchmark (Part 6).")
  in
  let multiload_json_arg =
    Arg.(
      value
      & opt string "BENCH_multiload.json"
      & info [ "multiload-json" ] ~docv:"FILE"
          ~doc:"Where to write the multi-load benchmark JSON.")
  in
  let multiload_gate_arg =
    Arg.(
      value & flag
      & info [ "multiload-gate" ]
          ~doc:
            "Exit non-zero unless the steady-state period beats the \
             back-to-back baseline on at least one regime.")
  in
  let pool_only_arg =
    Arg.(
      value & flag
      & info [ "pool-only" ]
          ~doc:"Run only the pool scaling benchmark (Part 8).")
  in
  let pool_json_arg =
    Arg.(
      value
      & opt string "BENCH_pool.json"
      & info [ "pool-json" ] ~docv:"FILE"
          ~doc:"Where to write the pool scaling benchmark JSON.")
  in
  let pool_gate_arg =
    Arg.(
      value & flag
      & info [ "pool-gate" ]
          ~doc:
            "Exit non-zero unless 4 dispatchers match or beat 1 on the skewed \
             service mix.")
  in
  let doc = "reproduce the paper's figures and benchmark the library" in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc)
      Term.(
        const main $ quick_arg $ skip_micro_arg $ only_arg $ jobs_arg
        $ solvers_only_arg $ solvers_json_arg $ bench_k_arg $ warmup_arg
        $ solvers_gate_arg $ robustness_only_arg $ robustness_json_arg
        $ robustness_cases_arg $ multiload_only_arg $ multiload_json_arg
        $ multiload_gate_arg $ pool_only_arg $ pool_json_arg $ pool_gate_arg)
  in
  exit (Cmd.eval cmd)
