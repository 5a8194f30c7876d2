module Q = Numeric.Rational

let seed_limit = 10_000

let no_selective_platform () =
  raise
    (Dls.Errors.Error
       (Dls.Errors.Invalid_scenario
          (Printf.sprintf
             "Fig9: no selective platform found within %d seeds" seed_limit)))

let find_selective_platform ?(jobs = 1) ~workers ~wanted ~n () =
  let machine = Cluster.Workload.gdsdmi in
  (* Pure in [seed]: each candidate builds its platform from a fresh
     PRNG, so seeds can be probed in any order or in parallel. *)
  let eval seed =
    let rng = Numeric.Prng.create ~seed in
    let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers in
    let p = Cluster.Gen.platform machine ~n f in
    let sol = Dls.Heuristics.solve Dls.Heuristics.Inc_c p in
    if List.length (Dls.Lp_model.enrolled_workers sol) = wanted then
      Some (seed, f, p, sol)
    else None
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      (* Probe seeds in blocks of one per domain and keep the lowest
         match, so the chosen platform is the sequential one for every
         [jobs], and one domain evaluates no seed past it. *)
      let block = max 1 jobs in
      let rec scan lo =
        if lo > seed_limit then no_selective_platform ()
        else
          let size = min block (seed_limit - lo + 1) in
          let seeds = Array.init size (fun i -> lo + i) in
          match Array.find_map Fun.id (Parallel.Pool.map pool eval seeds) with
          | Some r -> r
          | None -> scan (lo + block)
      in
      scan 0)

let run ?(width = 72) ?jobs () =
  let n = 300 and total = 200 and workers = 5 in
  let seed, f, platform, sol = find_selective_platform ?jobs ~workers ~wanted:3 ~n () in
  let rng = Numeric.Prng.create ~seed:(seed + 77) in
  let plan = Sim.Star.plan_of_rounded sol ~total in
  let noise = Cluster.Noise.make rng ~n in
  let trace = Sim.Star.execute ~noise platform plan in
  let rows =
    List.init workers (fun i ->
        [
          Report.Str (Dls.Platform.get platform i).Dls.Platform.name;
          Report.Int f.Cluster.Gen.comm.(i);
          Report.Int f.Cluster.Gen.comp.(i);
          Report.Float (Q.to_float sol.Dls.Lp_model.alpha.(i));
          Report.Int (int_of_float plan.Sim.Star.loads.(i));
        ])
  in
  let gantt =
    Sim.Gantt.render ~width
      ~names:(fun i -> (Dls.Platform.get platform i).Dls.Platform.name)
      trace
  in
  let notes =
    Printf.sprintf "platform seed %d, matrix size %d, %d items, makespan %.3f s"
      seed n total trace.Sim.Trace.makespan
    :: Printf.sprintf "one-port violations: %d; trace valid: %b"
         (List.length (Sim.Trace.one_port_violations trace))
         (Sim.Trace.is_valid trace)
    :: String.split_on_char '\n' gantt
  in
  Report.make ~id:"fig9" ~title:"execution trace, heterogeneous platform (INC_C)"
    ~columns:[ "worker"; "comm x"; "comp x"; "alpha"; "items" ]
    ~notes rows
