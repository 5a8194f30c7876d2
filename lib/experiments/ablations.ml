module Q = Numeric.Rational

let machine = Cluster.Workload.gdsdmi

let random_platform rng ~workers ~n =
  let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
  Cluster.Gen.platform machine ~n f

let one_port_cost ?(quick = false) () =
  let reps = if quick then 5 else 30 in
  let sizes = if quick then [ 40; 120; 200 ] else [ 40; 80; 120; 160; 200; 400 ] in
  let rng = Numeric.Prng.create ~seed:21 in
  let rows =
    List.map
      (fun n ->
        let ratios =
          List.init reps (fun _ ->
              let p = random_platform rng ~workers:8 ~n in
              let one = Dls.Fifo.optimal ~model:Dls.Lp_model.One_port p in
              let two = Dls.Fifo.optimal ~model:Dls.Lp_model.Two_port p in
              Q.to_float two.Dls.Lp_model.rho /. Q.to_float one.Dls.Lp_model.rho)
        in
        [
          Report.Int n;
          Report.Float (Stats.mean ratios);
          Report.Float (List.fold_left Float.max 1.0 ratios);
        ])
      sizes
  in
  Report.make ~id:"ablation-oneport"
    ~title:"two-port / one-port optimal FIFO throughput ratio"
    ~columns:[ "n"; "mean ratio"; "max ratio" ]
    ~notes:
      [
        "ratio 1 means the port serialization costs nothing; larger \
         communication shares (small n) widen the gap";
      ]
    rows

let permutation_gap ?(quick = false) ?jobs () =
  let reps = if quick then 4 else 25 in
  let rng = Numeric.Prng.create ~seed:22 in
  let fifo_gaps = ref [] and lifo_gaps = ref [] and fifo_hits = ref 0 in
  for _ = 1 to reps do
    let p = random_platform rng ~workers:4 ~n:120 in
    let best = (Dls.Brute.best_general ?jobs p).Dls.Lp_model.rho in
    let fifo = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
    let lifo = (Dls.Lifo.optimal p).Dls.Lp_model.rho in
    fifo_gaps := (Q.to_float fifo /. Q.to_float best) :: !fifo_gaps;
    lifo_gaps := (Q.to_float lifo /. Q.to_float best) :: !lifo_gaps;
    if Q.equal fifo best then incr fifo_hits
  done;
  Report.make ~id:"ablation-permutations"
    ~title:"FIFO/LIFO vs best permutation pair (brute force, 4 workers)"
    ~columns:[ "discipline"; "mean rho/best"; "min rho/best"; "exactly optimal" ]
    ~notes:
      [
        Printf.sprintf "%d random platforms; the general problem's complexity is open" reps;
      ]
    [
      [
        Report.Str "optimal FIFO";
        Report.Float (Stats.mean !fifo_gaps);
        Report.Float (List.fold_left Float.min 1.0 !fifo_gaps);
        Report.Str (Printf.sprintf "%d/%d" !fifo_hits reps);
      ];
      [
        Report.Str "optimal LIFO";
        Report.Float (Stats.mean !lifo_gaps);
        Report.Float (List.fold_left Float.min 1.0 !lifo_gaps);
        Report.Str "-";
      ];
    ]

let ordering ?(quick = false) () =
  let reps = if quick then 8 else 40 in
  let rng = Numeric.Prng.create ~seed:23 in
  let strategies =
    [
      ("INC_C (Theorem 1)", fun p -> Dls.Fifo.order p);
      ( "INC_W",
        fun p -> Dls.Platform.sorted_indices_by p (fun wk -> wk.Dls.Platform.w) );
      ( "DEC_C",
        fun p ->
          let a = Dls.Fifo.order p in
          Array.init (Array.length a) (fun i -> a.(Array.length a - 1 - i)) );
      ("platform order", fun p -> Array.init (Dls.Platform.size p) Fun.id);
    ]
  in
  let sums = Array.make (List.length strategies) 0.0 in
  for _ = 1 to reps do
    let p = random_platform rng ~workers:8 ~n:120 in
    let best = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
    List.iteri
      (fun i (_, order) ->
        let rho = (Dls.Fifo.solve_order p (order p)).Dls.Lp_model.rho in
        sums.(i) <- sums.(i) +. (Q.to_float rho /. Q.to_float best))
      strategies
  done;
  Report.make ~id:"ablation-ordering"
    ~title:"FIFO sending orders, throughput relative to INC_C"
    ~columns:[ "order"; "mean rho / rho(INC_C)" ]
    ~notes:[ Printf.sprintf "%d random heterogeneous 8-worker platforms" reps ]
    (List.mapi
       (fun i (name, _) ->
         [ Report.Str name; Report.Float (sums.(i) /. float_of_int reps) ])
       strategies)

let lifo_regime ?(quick = false) () =
  let reps = if quick then 6 else 25 in
  let rng = Numeric.Prng.create ~seed:25 in
  (* Scale w relative to c by a factor r; z stays at the workload's 1/2. *)
  let ratios = [ (1, 4); (1, 1); (2, 1); (4, 1); (8, 1); (16, 1); (32, 1) ] in
  let rows =
    List.map
      (fun (rn, rd) ->
        let r = Q.of_ints rn rd in
        let lifo_over_fifo = ref [] and enrolled = ref 0 in
        for _ = 1 to reps do
          let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:11 in
          let specs =
            List.init 11 (fun i ->
                let c = Q.of_ints 10 f.Cluster.Gen.comm.(i) in
                let w = Q.mul r (Q.of_ints 10 f.Cluster.Gen.comp.(i)) in
                (c, w))
          in
          let p = Dls.Platform.with_return_ratio ~z:Q.half specs in
          let fifo = Dls.Fifo.optimal p in
          let lifo = Dls.Lifo.optimal p in
          enrolled := !enrolled + List.length (Dls.Lp_model.enrolled_workers fifo);
          (* makespan ratio = inverse throughput ratio *)
          lifo_over_fifo :=
            Q.to_float fifo.Dls.Lp_model.rho /. Q.to_float lifo.Dls.Lp_model.rho
            :: !lifo_over_fifo
        done;
        [
          Report.Str (Printf.sprintf "%d/%d" rn rd);
          Report.Float (Stats.mean !lifo_over_fifo);
          Report.Float (float_of_int !enrolled /. float_of_int reps);
        ])
      ratios
  in
  Report.make ~id:"ablation-lifo-regime"
    ~title:"LIFO/INC_C makespan ratio vs compute-communication balance"
    ~columns:[ "w/c scale"; "LIFO time / INC_C time"; "FIFO enrolled (of 11)" ]
    ~notes:
      [
        "ratios below 1 mean LIFO wins; the paper's LIFO-dominant regime is \
         compute-bound (right side)";
      ]
    rows

let affine_latency ?(quick = false) () =
  let workers = if quick then 3 else 4 in
  let rng = Numeric.Prng.create ~seed:26 in
  let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
  let p = Cluster.Gen.platform machine ~n:100 f in
  let latencies = [ 0; 1; 2; 5; 10; 20 ] (* percent of the deadline *) in
  let rows =
    List.map
      (fun pct ->
        let latency = Q.of_ints pct 100 in
        let a = Dls.Affine.of_platform ~send_latency:latency ~return_latency:latency p in
        match Dls.Affine.best_fifo a with
        | Dls.Affine.Too_slow ->
          [ Report.Int pct; Report.Str "infeasible"; Report.Int 0 ]
        | Dls.Affine.Solved s ->
          [
            Report.Int pct;
            Report.Float (Numeric.Rational.to_float s.Dls.Affine.rho);
            Report.Int (Array.length s.Dls.Affine.sigma1);
          ])
      latencies
  in
  Report.make ~id:"ablation-affine"
    ~title:"affine model: message start-up latency vs optimal FIFO schedule"
    ~columns:[ "latency (% of deadline)"; "best rho"; "workers enrolled" ]
    ~notes:
      [
        Printf.sprintf
          "%d-worker heterogeneous platform; subsets and orders searched \
           exhaustively (latencies make enrollment combinatorial)"
          workers;
      ]
    rows

let multiround ?(quick = false) () =
  let max_rounds = if quick then 6 else 8 in
  let rng = Numeric.Prng.create ~seed:27 in
  let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:3 in
  let p = Cluster.Gen.platform machine ~n:100 f in
  let order = Dls.Fifo.order p in
  let base = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
  (* One percent of the deadline per message: small enough that a little
     pipelining still wins, large enough that many rounds lose. *)
  let latency = Q.of_ints 1 100 in
  let linear = Dls.Multiround.sweep_rounds p ~order ~max_rounds () in
  let affine =
    Dls.Multiround.sweep_rounds p ~send_latency:latency ~return_latency:latency
      ~order ~max_rounds ()
  in
  let rows =
    List.map
      (fun (pt : Dls.Multiround.round_point) ->
        let rho_affine =
          List.find_opt
            (fun (a : Dls.Multiround.round_point) ->
              a.Dls.Multiround.rounds = pt.Dls.Multiround.rounds)
            affine
        in
        [
          Report.Int pt.Dls.Multiround.rounds;
          Report.Float
            (Q.to_float pt.Dls.Multiround.throughput /. Q.to_float base);
          (match rho_affine with
          | Some a ->
            Report.Float (Q.to_float a.Dls.Multiround.throughput /. Q.to_float base)
          | None -> Report.Str "infeasible");
        ])
      linear
  in
  Report.make ~id:"ablation-multiround"
    ~title:"multi-round schedules: throughput vs round count"
    ~columns:
      [ "rounds"; "linear model (rho/1-round)"; "affine model (rho/1-round)" ]
    ~notes:
      [
        "linear costs: monotone non-decreasing in R (the degeneracy the paper \
         notes); affine costs: a finite optimal R emerges";
        Printf.sprintf "per-message latency = %s s" (Q.to_string latency);
      ]
    rows

let protocol ?(quick = false) () =
  let reps = if quick then 8 else 40 in
  let rng = Numeric.Prng.create ~seed:28 in
  let rows =
    List.map
      (fun n ->
        let lp_ratios = ref [] and naive_ratios = ref [] in
        for _ = 1 to reps do
          let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:8 in
          let p = Cluster.Gen.platform machine ~n f in
          let sol = Dls.Fifo.optimal p in
          let ratio plan =
            Sim.Star.makespan ~protocol:Sim.Star.Eager_returns p plan
            /. Sim.Star.makespan p plan
          in
          lp_ratios := ratio (Sim.Star.plan_of_rounded sol ~total:1000) :: !lp_ratios;
          (* The naive practitioner's plan: split the campaign evenly
             over all workers, INC_C order. *)
          let order = Dls.Fifo.order p in
          let naive =
            {
              Sim.Star.sigma1 = order;
              sigma2 = Array.copy order;
              loads = Array.make (Dls.Platform.size p) (1000.0 /. 8.0);
            }
          in
          naive_ratios := ratio naive :: !naive_ratios
        done;
        [
          Report.Int n;
          Report.Float (Stats.mean !lp_ratios);
          Report.Float (Stats.mean !naive_ratios);
          Report.Float (List.fold_left Float.min infinity !naive_ratios);
        ])
      [ 40; 120; 400 ]
  in
  Report.make ~id:"ablation-protocol"
    ~title:"eager-return vs sends-first master policy (makespan ratio)"
    ~columns:
      [ "n"; "LP plans: mean eager/lazy"; "equal-split: mean"; "equal-split: min" ]
    ~notes:
      [
        "LP-dimensioned plans keep every worker busy past the send phase, so \
         eager interleaving never fires (ratio 1); on naive equal-split plans \
         it fires but only delays the remaining sends (ratio > 1) — \
         empirical support for the paper's all-sends-first canonical form";
      ]
    rows

let scaling ?(quick = false) () =
  let sizes = if quick then [ 4; 8; 16 ] else [ 4; 8; 16; 24; 32 ] in
  let rng = Numeric.Prng.create ~seed:30 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let measured =
    List.map
      (fun workers ->
        let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
        let p = Cluster.Gen.platform machine ~n:120 f in
        let scenario = Dls.Scenario.fifo_exn p (Dls.Fifo.order p) in
        let t_exact, sol = time (fun () -> Dls.Solve.solve_exn ~mode:`Exact scenario) in
        let t_float, estimate = time (fun () -> Dls.Lp_model.estimate_rho scenario) in
        let exact = Q.to_float sol.Dls.Lp_model.rho in
        let err =
          match estimate with
          | Some est -> Float.abs (est -. exact) /. exact
          | None -> Float.nan
        in
        ( [ Report.Int workers; Report.Float err; Report.Int sol.Dls.Lp_model.pivots ],
          [ Report.Int workers; Report.Float (1000.0 *. t_exact); Report.Float (1000.0 *. t_float) ]
        ))
      sizes
  in
  let timings =
    Report.make ~id:"ablation-scaling" ~title:"wall clock of the solves above"
      ~columns:[ "workers"; "exact (ms)"; "float (ms)" ]
      (List.map snd measured)
  in
  Report.make ~id:"ablation-scaling"
    ~title:"solver scaling with the worker count (FIFO scheduling LP)"
    ~columns:[ "workers"; "relative error"; "pivots" ]
    ~notes:
      [
        "the exact rational solver is the source of truth; the float path \
         serves large sweeps where 1e-9 accuracy suffices";
      ]
    ~timings (List.map fst measured)

let sensitivity ?(quick = false) () =
  let reps = if quick then 8 else 40 in
  let n = 120 and total = 1000 in
  let rng = Numeric.Prng.create ~seed:29 in
  let factor_sets =
    List.init reps (fun _ ->
        Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:11)
  in
  let rows =
    List.map
      (fun jitter_pct ->
        let jitter = float_of_int jitter_pct /. 100.0 in
        let params =
          {
            Cluster.Noise.none with
            Cluster.Noise.comm_jitter = jitter;
            comp_jitter = jitter;
          }
        in
        let degradation heuristic =
          Stats.mean
            (List.map
               (fun factors ->
                 let m =
                   Campaign.measure ~noise_params:params
                     ~rng:(Numeric.Prng.split rng) ~machine ~n ~total factors
                     heuristic
                 in
                 m.Campaign.real_time /. m.Campaign.lp_time)
               factor_sets)
        in
        [
          Report.Int jitter_pct;
          Report.Float (degradation Dls.Heuristics.Inc_c);
          Report.Float (degradation Dls.Heuristics.Lifo);
        ])
      [ 0; 2; 5; 10; 20 ]
  in
  Report.make ~id:"ablation-sensitivity"
    ~title:"perturbation sensitivity: real/lp degradation vs jitter"
    ~columns:[ "jitter (%)"; "INC_C real/lp"; "LIFO real/lp" ]
    ~notes:
      [
        "the paper attributes LIFO's Fig. 13a behaviour to sensitivity to \
         performance variations; compare how fast each column grows";
      ]
    rows

let theorem2_check () =
  let rng = Numeric.Prng.create ~seed:24 in
  let rows =
    List.init 6 (fun k ->
        let workers = 2 + k in
        let f = Cluster.Gen.factors rng Cluster.Gen.Hom_comm_het_comp ~workers in
        let p = Cluster.Gen.platform machine ~n:100 f in
        let lp = (Dls.Fifo.optimal p).Dls.Lp_model.rho in
        let formula = Dls.Closed_form.fifo_throughput_of_platform p in
        [
          Report.Int workers;
          Report.Float (Q.to_float formula);
          Report.Float (Q.to_float lp);
          Report.Str (if Q.equal formula lp then "exact" else "MISMATCH");
        ])
  in
  Report.make ~id:"theorem2-check"
    ~title:"Theorem 2 closed form vs LP optimum (bus platforms)"
    ~columns:[ "workers"; "closed form"; "LP"; "agreement" ]
    rows

let robustness ?(quick = false) () =
  let seed = 2026 and cases = if quick then 6 else 18 in
  let percent q = 100.0 *. Q.to_float q in
  let cell severity regime =
    let unrecovered = ref [] and recovered = ref [] and recoveries = ref 0 in
    for i = 0 to cases - 1 do
      let platform, plan, load = Check.Fuzz.fault_case ~seed ~severity regime i in
      let o = Dls.Replan.respond_exn plan (Dls.Fifo.optimal platform) ~load in
      let frac (r : Dls.Replan.report) =
        percent (Q.div r.Dls.Replan.done_by_deadline r.Dls.Replan.total)
      in
      unrecovered := frac o.Dls.Replan.baseline :: !unrecovered;
      recovered := frac o.Dls.Replan.achieved :: !recovered;
      match o.Dls.Replan.decision with
      | Dls.Replan.Recover _ -> incr recoveries
      | Dls.Replan.Keep_original -> ()
    done;
    let u = Stats.mean !unrecovered and r = Stats.mean !recovered in
    [
      Report.Float severity;
      Report.Str (Check.Fuzz.regime_to_string regime);
      Report.Float u;
      Report.Float r;
      Report.Float (r -. u);
      Report.Int !recoveries;
    ]
  in
  Report.make ~id:"robustness"
    ~title:"recovered vs unrecovered completion under seeded faults"
    ~columns:
      [
        "severity"; "z"; "unrecovered (%)"; "recovered (%)"; "gain (%)";
        "recoveries";
      ]
    ~notes:
      [
        Printf.sprintf
          "%d Check.Fuzz.fault_case draws per cell, seed %d; percentages are \
           the mean share of the load returned by the fault-free deadline, \
           without recovery and under Replan.respond's decision"
          cases seed;
      ]
    (List.concat_map
       (fun severity ->
         List.map (cell severity) Check.Fuzz.all_regimes)
       [ 0.25; 0.5; 0.75; 1.0 ])

let multiload ?(quick = false) () =
  let h = if quick then 2 else 3 in
  let cs = [| Q.one; Q.of_ints 1 2; Q.of_int 2; Q.of_ints 3 4 |] in
  let ws = [| Q.of_int 2; Q.of_int 3; Q.of_ints 3 2; Q.of_ints 5 2 |] in
  let workload =
    Dls.Workload.make_exn
      [
        Dls.Workload.load ~size:(Q.of_int 5) ();
        Dls.Workload.load ~size:(Q.of_int 3) ();
      ]
  in
  let total = Dls.Workload.total_size workload in
  let row p z =
    let platform =
      Dls.Platform.with_return_ratio ~z (List.init p (fun i -> (cs.(i), ws.(i))))
    in
    let period = (Dls.Steady_state.solve_exn platform workload).Dls.Steady_state.period in
    let naive =
      Dls.Errors.get_exn (Dls.Steady_state.naive_makespan platform workload)
    in
    let batch =
      Dls.Errors.get_exn
        (Dls.Steady_state.solve_batch_best ~max_depth:2 platform
           (Dls.Workload.repeat h workload))
    in
    let per time = Q.to_float (Q.div total time) in
    [
      Report.Int p;
      Report.Str (Q.to_string z);
      Report.Str (Q.to_string period);
      Report.Float (per period);
      Report.Float (per naive);
      Report.Float
        (Q.to_float
           (Q.div (Q.mul (Q.of_int h) total) batch.Dls.Steady_state.makespan));
      Report.Float (Q.to_float (Q.div naive period));
    ]
  in
  Report.make ~id:"multiload"
    ~title:
      (Printf.sprintf "multi-load steady state vs back-to-back (mix 5+3, H=%d)" h)
    ~columns:
      [ "p"; "z"; "period"; "steady tp"; "naive tp"; "batch tp"; "improvement" ]
    ~notes:
      [
        "tp is load per time unit: the steady-state period, one mix run \
         back to back, and the best batch LP (depth <= 2) over H \
         zero-release copies; improvement = naive time / period";
      ]
    (List.concat_map
       (fun p ->
         List.map (row p) [ Q.of_ints 1 2; Q.one; Q.of_int 2 ])
       (if quick then [ 3 ] else [ 3; 4 ]))
