(* Command-line interface to the divisible-load scheduling library.

   Subcommands:
     solve       optimal FIFO/LIFO schedule on a platform (Theorem 1)
     solve-multi steady-state / batch schedules for a mix of loads
     bus         Theorem 2 closed form on a bus network
     gantt       render a schedule as an ASCII (or SVG) Gantt chart
     simulate    execute a campaign on the simulated cluster
     brute       exhaustive search over message orderings
     search      branch-and-bound best FIFO order (non-uniform z)
     multiround  multi-installment schedules, optional latencies
     tree        divisible loads on tree networks (no-return baseline)
     affine      optimal FIFO with per-message start-up latencies
     sensitivity exact throughput sensitivity to each parameter
     faults      generate/validate deterministic fault-injection plans
     check       exact validation: schedules, traces, differential fuzzing
     lp-dump     print a scheduling LP in LP-file format
     experiment  regenerate one of the paper's figures
     platform    generate a random matrix-product platform            *)

module Q = Numeric.Rational
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Platform specifications                                             *)
(* ------------------------------------------------------------------ *)

(* "c:w:d,c:w:d,..." with rational components ("1/2", "0.25", "3"),
   parsed as the wire protocol parses it. *)
let platform_conv =
  let parse s =
    Result.map_error
      (fun e -> `Msg (Dls.Errors.to_string e))
      (Dls.Platform.of_spec ~line:1 ~col:1 s)
  in
  let print fmt p = Dls.Platform.pp fmt p in
  Arg.conv (parse, print)

let platform_arg =
  let spec =
    let doc =
      "Platform specification: comma-separated workers, each $(b,c:w:d) with \
       rational components, e.g. $(b,1:1:1/2,1:2:1/2)."
    in
    Arg.(value & opt (some platform_conv) None & info [ "p"; "platform" ] ~doc)
  in
  let file =
    let doc = "Read the platform from $(docv) (one 'name c w d' line per worker)." in
    Arg.(value & opt (some string) None & info [ "f"; "platform-file" ] ~docv:"FILE" ~doc)
  in
  let combine spec file =
    match (spec, file) with
    | Some p, None -> Ok p
    | None, Some path -> (
      match Dls.Platform_io.read path with
      | Ok p -> Ok p
      | Error e -> Error (`Msg (Dls.Errors.to_string e)))
    | Some _, Some _ -> Error (`Msg "give either --platform or --platform-file")
    | None, None -> Error (`Msg "a platform is required (--platform or --platform-file)")
  in
  Term.(term_result (const combine $ spec $ file))

let rational_conv =
  let parse s =
    match Q.of_string s with
    | q -> Ok q
    | exception _ -> Error (`Msg (Printf.sprintf "not a rational: %S" s))
  in
  Arg.conv (parse, fun fmt q -> Q.pp fmt q)

let model_arg =
  let doc = "Communication model: $(b,one-port) or $(b,two-port)." in
  Arg.(
    value
    & opt (enum [ ("one-port", Dls.Lp_model.One_port); ("two-port", Dls.Lp_model.Two_port) ])
        Dls.Lp_model.One_port
    & info [ "model" ] ~doc)

let discipline_arg =
  let doc = "Message ordering discipline: $(b,fifo) or $(b,lifo)." in
  Arg.(value & opt (enum [ ("fifo", `Fifo); ("lifo", `Lifo) ]) `Fifo & info [ "discipline" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel evaluation (default: number of cores). \
     Results are bit-identical to $(b,--jobs=1)."
  in
  Arg.(
    value
    & opt int (Parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let load_arg =
  let doc = "Total load (number of items); reports the makespan for it." in
  Arg.(value & opt (some rational_conv) None & info [ "load" ] ~doc)

let print_solution ?load sol =
  Format.printf "%a@." Dls.Lp_model.pp sol;
  (match load with
  | Some load ->
    Format.printf "makespan for %s items: %s (~%.6g)@." (Q.to_string load)
      (Q.to_string (Dls.Lp_model.time_for_load sol ~load))
      (Q.to_float (Dls.Lp_model.time_for_load sol ~load))
  | None -> ());
  let sched = Dls.Schedule.of_solved sol in
  match Dls.Schedule.validate sched with
  | Ok () -> ()
  | Error msgs ->
    Format.printf "WARNING: schedule validation failed:@.";
    List.iter (Format.printf "  %s@.") msgs

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let solve_cmd =
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Also report which LP constraints bind (deadlines vs port).")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-schedule" ] ~docv:"FILE"
          ~doc:
            "Write the schedule to $(docv) in the exact text format of \
             $(b,dls check --schedule).")
  in
  let run platform discipline model load explain dump fast delta stats =
    let scenario_of p =
      match discipline with
      | `Fifo -> Dls.Scenario.fifo_exn p (Dls.Fifo.order p)
      | `Lifo -> Dls.Scenario.lifo_exn p (Dls.Lifo.order p)
    in
    let sol =
      match delta with
      | Some d ->
        (* Incremental what-if: solve the base through the cache, apply
           the delta to its scenario (sending order kept when the worker
           count is unchanged), and re-solve with the base's optimal
           basis as the warm start, which is certified first. *)
        let base = Dls.Solve.solve_exn ~mode:`Cached ~model (scenario_of platform) in
        Format.printf "base rho = %s (~%.6g)@." (Q.to_string base.Dls.Lp_model.rho)
          (Q.to_float base.Dls.Lp_model.rho);
        Format.printf "delta: %a@." (Dls.Delta.pp platform) d;
        let scenario' =
          match Dls.Delta.apply_scenario base.Dls.Lp_model.scenario d with
          | Ok s -> s
          | Error e -> raise (Dls.Errors.Error e)
        in
        let before = Dls.Lp_model.pipeline_stats () in
        let sol =
          Dls.Solve.solve_exn ~mode:`Cached ~model
            ~warm:base.Dls.Lp_model.basis scenario'
        in
        let after = Dls.Lp_model.pipeline_stats () in
        Format.printf "re-solve: %d warm-start wins, %d exact fallbacks@."
          (after.Dls.Lp_model.warm_wins - before.Dls.Lp_model.warm_wins)
          (after.Dls.Lp_model.exact_fallbacks
          - before.Dls.Lp_model.exact_fallbacks);
        sol
      | None ->
        if fast then Dls.Solve.solve_exn ~mode:`Fast ~model (scenario_of platform)
        else (
          match discipline with
          | `Fifo -> Dls.Fifo.optimal ~model platform
          | `Lifo -> Dls.Lifo.optimal ~model platform)
    in
    print_solution ?load sol;
    if stats then begin
      Format.printf "pipeline:@.%a@." Dls.Lp_model.pp_pipeline_stats
        (Dls.Lp_model.pipeline_stats ());
      let cs = Dls.Lp_model.cache_stats () in
      Format.printf "cache: %d hits, %d misses, %d evictions@." cs.Parallel.Lru.hits
        cs.Parallel.Lru.misses cs.Parallel.Lru.evictions
    end;
    (match dump with
    | None -> ()
    | Some file ->
      Dls.Schedule_io.write file (Dls.Schedule.of_solved sol);
      Format.printf "schedule written to %s@." file);
    if explain then begin
      Format.printf "constraints:@.";
      List.iter
        (fun st ->
          Format.printf "  %-16s %s  slack = %s (~%.4g)@."
            st.Dls.Lp_model.label
            (if st.Dls.Lp_model.binding then "BINDING " else "slack   ")
            (Q.to_string st.Dls.Lp_model.slack)
            (Q.to_float st.Dls.Lp_model.slack))
        (Dls.Lp_model.constraint_report sol)
    end
  in
  let fast_arg =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:
            "Solve through the certified fast LP pipeline (float simplex + \
             one exact basis factorization, exact fallback).  Bit-identical \
             to the default exact solve.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print fast-pipeline counters (float-path wins, warm-start wins, \
             exact fallbacks, pruned nodes) and solve-cache statistics.")
  in
  let delta_arg =
    let delta_conv =
      Arg.conv
        ( (fun s ->
            match Dls.Delta.of_spec ~line:1 ~col:1 s with
            | Ok d -> Ok d
            | Error e -> Error (`Msg (Dls.Errors.to_string e))),
          fun fmt d -> Format.pp_print_string fmt (Dls.Delta.to_spec d) )
    in
    Arg.(
      value
      & opt (some delta_conv) None
      & info [ "delta" ] ~docv:"SPEC"
          ~doc:
            "Solve the platform, then re-solve it with the comma-separated \
             changes applied: $(b,comm:I:F) / $(b,comp:I:F) scale worker \
             $(i,I)'s link or compute speed by rational $(i,F), $(b,z:Q) \
             sets the return ratio, $(b,add:C:W:D) appends a worker, \
             $(b,drop:I) removes one (1-based indices).  The re-solve starts \
             from the base's optimal basis, which is certified first, and \
             reports its warm-start wins and exact fallbacks.")
  in
  let doc = "compute the optimal FIFO or LIFO schedule (Theorem 1)" in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const run $ platform_arg $ discipline_arg $ model_arg $ load_arg
      $ explain_arg $ dump_arg $ fast_arg $ delta_arg $ stats_arg)

(* ------------------------------------------------------------------ *)
(* solve-multi                                                         *)
(* ------------------------------------------------------------------ *)

let solve_multi_cmd =
  let workload_arg =
    let workload_conv =
      Arg.conv
        ( (fun s ->
            match Dls.Workload.of_spec ~line:1 ~col:1 s with
            | Ok w -> Ok w
            | Error e -> Error (`Msg (Dls.Errors.to_string e))),
          fun fmt w -> Format.pp_print_string fmt (Dls.Workload.to_spec w) )
    in
    Arg.(
      required
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"SPEC"
          ~doc:
            "Workload specification: comma-separated loads, each \
             $(b,size:release) or $(b,size:release:z) with rational \
             components, e.g. $(b,5:0,3:1/2:2).  A per-load $(b,z) \
             overrides the platform's return ratio for that load.")
  in
  let batch_arg =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Schedule the finite batch (release dates honored) instead of \
             computing the steady-state period.")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Fix the batch interleave depth (with $(b,--batch); default: \
             best over depths 0..2).")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Replay the batch on the simulated cluster (with $(b,--batch)) \
             and report the observed makespan and trace validity.")
  in
  let run platform workload batch depth replay =
    if batch then begin
      let b =
        Dls.Errors.get_exn
          (match depth with
          | Some depth -> Dls.Steady_state.solve_batch ~depth platform workload
          | None -> Dls.Steady_state.solve_batch_best platform workload)
      in
      Format.printf "%a@." Dls.Steady_state.pp_batch b;
      (match
         Check.Validator.errors_of_result platform
           (Check.Validator.validate_batch b)
       with
      | Ok () -> Format.printf "validation: OK@."
      | Error msgs ->
        Format.printf "WARNING: batch validation failed:@.";
        List.iter (Format.printf "  %s@.") msgs);
      if replay then begin
        let trace = Sim.Star.execute_multi platform (Sim.Star.plan_of_batch b) in
        Format.printf "replay: makespan %.6g (LP %.6g), trace %s@."
          trace.Sim.Trace.makespan
          (Q.to_float b.Dls.Steady_state.makespan)
          (if Sim.Trace.is_valid trace then "valid" else "INVALID")
      end
    end
    else begin
      if depth <> None || replay then begin
        prerr_endline "dls: --depth and --replay require --batch";
        exit 2
      end;
      let s = Dls.Steady_state.solve_exn platform workload in
      Format.printf "%a@." Dls.Steady_state.pp s;
      match Dls.Steady_state.naive_makespan platform workload with
      | Error _ -> ()
      | Ok naive ->
        Format.printf
          "back-to-back baseline: one mix every %s (~%.6g); steady state \
           saves %s per period@."
          (Q.to_string naive) (Q.to_float naive)
          (Q.to_string (Q.sub naive s.Dls.Steady_state.period))
    end
  in
  let doc = "steady-state and batch schedules for a mix of loads" in
  let man =
    [
      `S Manpage.s_examples;
      `P "Optimal period for two loads released together:";
      `Pre "  dls solve-multi -p 1:1:1/2,1:2:1/2 -w 5:0,3:0";
      `P "Finite batch with a staggered release and a fixed depth, replayed:";
      `Pre "  dls solve-multi -p 1:1:1/2,1:2:1/2 -w 5:0,3:1/2 --batch --replay";
    ]
  in
  Cmd.v
    (Cmd.info "solve-multi" ~doc ~man)
    Term.(
      const run $ platform_arg $ workload_arg $ batch_arg $ depth_arg
      $ replay_arg)

(* ------------------------------------------------------------------ *)
(* bus                                                                 *)
(* ------------------------------------------------------------------ *)

let bus_cmd =
  let c_arg =
    Arg.(required & opt (some rational_conv) None & info [ "c" ] ~doc:"Link cost c.")
  in
  let d_arg =
    Arg.(required & opt (some rational_conv) None & info [ "d" ] ~doc:"Return cost d.")
  in
  let w_arg =
    let doc = "Comma-separated worker compute costs." in
    Arg.(required & opt (some string) None & info [ "w" ] ~doc)
  in
  let run c d w_spec =
    let ws =
      Array.of_list (List.map Q.of_string (String.split_on_char ',' w_spec))
    in
    let rho = Dls.Closed_form.fifo_throughput ~c ~d ws in
    let rho2 = Dls.Closed_form.two_port_throughput ~c ~d ws in
    Format.printf "one-port FIFO throughput (Theorem 2): %s (~%.6g)@."
      (Q.to_string rho) (Q.to_float rho);
    Format.printf "two-port bound rho~: %s (~%.6g)@." (Q.to_string rho2)
      (Q.to_float rho2);
    Format.printf "port saturation bound 1/(c+d): %s (~%.6g)@."
      (Q.to_string (Q.inv (Q.add c d)))
      (Q.to_float (Q.inv (Q.add c d)));
    let p = Dls.Platform.bus ~c ~d (Array.to_list ws) in
    let lp = Dls.Fifo.optimal p in
    Format.printf "LP cross-check: %s (%s)@."
      (Q.to_string lp.Dls.Lp_model.rho)
      (if Q.equal lp.Dls.Lp_model.rho rho then "exact match" else "MISMATCH")
  in
  let doc = "closed-form optimal FIFO throughput on a bus (Theorem 2)" in
  Cmd.v (Cmd.info "bus" ~doc) Term.(const run $ c_arg $ d_arg $ w_arg)

(* ------------------------------------------------------------------ *)
(* gantt                                                               *)
(* ------------------------------------------------------------------ *)

let gantt_cmd =
  let width_arg =
    Arg.(value & opt int 72 & info [ "width" ] ~doc:"Chart width in columns.")
  in
  let svg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Additionally write an SVG chart to $(docv).")
  in
  let run platform discipline model width svg =
    let sol =
      match discipline with
      | `Fifo -> Dls.Fifo.optimal ~model platform
      | `Lifo -> Dls.Lifo.optimal ~model platform
    in
    let sched = Dls.Schedule.of_solved sol in
    print_string (Sim.Gantt.render_schedule ~width sched);
    match svg with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Sim.Gantt.render_schedule_svg sched);
      close_out oc;
      Format.printf "SVG written to %s@." file
  in
  let doc = "render the optimal schedule as an ASCII Gantt chart" in
  Cmd.v
    (Cmd.info "gantt" ~doc)
    Term.(
      const run $ platform_arg $ discipline_arg $ model_arg $ width_arg $ svg_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let items_arg =
    Arg.(value & opt int 1000 & info [ "items" ] ~doc:"Campaign size (items).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Noise seed.") in
  let noisy_arg =
    Arg.(value & flag & info [ "noisy" ] ~doc:"Apply the calibrated noise model.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"FILE"
          ~doc:
            "Inject the fault plan in $(docv) (see $(b,dls faults)) and \
             report the perturbed execution: load returned by the deadline, \
             per-worker lateness and lost results (exact), and the trace.")
  in
  let replan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replan" ] ~docv:"POLICY"
          ~doc:
            "React to $(b,--faults) online with one recovery policy: \
             $(b,resolve), $(b,drop-faulty), $(b,margin[:M]), or $(b,none) \
             to measure the unrecovered baseline.  Default: try every \
             policy and keep the best outcome (never worse than \
             $(b,none)).")
  in
  let die fmt = Format.kasprintf (fun s -> prerr_endline ("dls: " ^ s); exit 1) fmt in
  let run_faulted platform sol items path replan =
    let plan =
      match Dls.Faults.read path with
      | Ok plan -> plan
      | Error e -> die "%s" (Dls.Errors.to_string e)
    in
    (match Dls.Faults.validate_for platform plan with
    | Ok () -> ()
    | Error e -> die "%s: %s" path (Dls.Errors.to_string e));
    let policies =
      match replan with
      | None -> Dls.Replan.default_policies
      | Some "none" -> []
      | Some s -> (
        match Dls.Replan.policy_of_string s with
        | Some p -> [ p ]
        | None -> die "unknown recovery policy %S" s)
    in
    let load = Q.of_int items in
    let outcome =
      match Dls.Replan.respond ~policies plan sol ~load with
      | Ok o -> o
      | Error e -> die "%s" (Dls.Errors.to_string e)
    in
    Format.printf "%a@." Dls.Replan.pp_outcome outcome;
    let original = Dls.Schedule.for_load sol ~load in
    match
      Sim.Faults.execute_decision platform plan ~original
        ~decision:outcome.Dls.Replan.decision
    with
    | Error e -> die "%s" (Dls.Errors.to_string e)
    | Ok trace ->
      let achieved = outcome.Dls.Replan.achieved.Dls.Replan.done_by_deadline in
      Format.printf
        "simulated execution:@.  achieved %.6g / %.6g load by deadline %.6g \
         (%.1f%%), makespan %.6g@."
        (Q.to_float achieved) (Q.to_float load)
        (Q.to_float outcome.Dls.Replan.deadline)
        (100.0 *. Q.to_float (Q.div achieved load))
        trace.Sim.Trace.makespan;
      print_string
        (Sim.Gantt.render
           ~names:(fun i -> (Dls.Platform.get platform i).Dls.Platform.name)
           trace)
  in
  let run platform discipline model items seed noisy faults replan =
    let sol =
      match discipline with
      | `Fifo -> Dls.Fifo.optimal ~model platform
      | `Lifo -> Dls.Lifo.optimal ~model platform
    in
    match faults with
    | Some path ->
      if noisy then
        prerr_endline "dls: note: --noisy is ignored when injecting faults";
      run_faulted platform sol items path replan
    | None ->
      let plan = Sim.Star.plan_of_rounded sol ~total:items in
      let noise =
        if noisy then
          Cluster.Noise.make (Numeric.Prng.create ~seed) ~n:100
        else Sim.Star.no_noise
      in
      let trace = Sim.Star.execute ~noise platform plan in
      let lp_time =
        Q.to_float (Dls.Lp_model.time_for_load sol ~load:(Q.of_int items))
      in
      Format.printf "LP-predicted makespan: %.6g@." lp_time;
      Format.printf "simulated makespan:    %.6g (%.2f%% above LP)@."
        trace.Sim.Trace.makespan
        (100.0 *. ((trace.Sim.Trace.makespan /. lp_time) -. 1.0));
      Format.printf "trace valid: %b@." (Sim.Trace.is_valid trace);
      print_string
        (Sim.Gantt.render
           ~names:(fun i -> (Dls.Platform.get platform i).Dls.Platform.name)
           trace)
  in
  let doc = "simulate a campaign on the platform (one-port master protocol)" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ platform_arg $ discipline_arg $ model_arg $ items_arg
      $ seed_arg $ noisy_arg $ faults_arg $ replan_arg)

(* ------------------------------------------------------------------ *)
(* brute                                                               *)
(* ------------------------------------------------------------------ *)

let brute_cmd =
  let general_arg =
    Arg.(
      value & flag
      & info [ "general" ]
          ~doc:"Search all (sigma1, sigma2) pairs, not only FIFO and LIFO.")
  in
  let run platform model general jobs =
    let n = Dls.Platform.size platform in
    if n > 6 then
      Format.printf "warning: %d! permutations, this may take a while@." n;
    let fifo = Dls.Brute.best_fifo ~model ~jobs platform in
    let lifo = Dls.Brute.best_lifo ~model ~jobs platform in
    Format.printf "best FIFO: rho = %s (~%.6g)@."
      (Q.to_string fifo.Dls.Lp_model.rho)
      (Q.to_float fifo.Dls.Lp_model.rho);
    Format.printf "best LIFO: rho = %s (~%.6g)@."
      (Q.to_string lifo.Dls.Lp_model.rho)
      (Q.to_float lifo.Dls.Lp_model.rho);
    if general then begin
      let best = Dls.Brute.best_general ~model ~jobs platform in
      Format.printf "best (sigma1, sigma2): rho = %s (~%.6g)@."
        (Q.to_string best.Dls.Lp_model.rho)
        (Q.to_float best.Dls.Lp_model.rho);
      Format.printf "%a@." Dls.Lp_model.pp best
    end
  in
  let doc = "exhaustive search over message orderings (small platforms)" in
  Cmd.v
    (Cmd.info "brute" ~doc)
    Term.(const run $ platform_arg $ model_arg $ general_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    let doc =
      Printf.sprintf "Experiment id; one of: %s, or $(b,all)."
        (String.concat ", " (Experiments.Registry.ids ()))
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shrink sweeps for a fast run.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of tables.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write each table as $(docv)/<id>.csv.")
  in
  let run id quick jobs csv json out =
    let entries =
      if id = "all" then Experiments.Registry.all
      else
        match Experiments.Registry.find id with
        | e -> [ e ]
        | exception Not_found ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat ", " (Experiments.Registry.ids ()));
          exit 2
    in
    (match out with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    List.iter
      (fun e ->
        List.iter
          (fun report ->
            if json then print_endline (Experiments.Report.to_json report)
            else if csv then print_string (Experiments.Report.to_csv report)
            else Experiments.Report.print report;
            (* wall-clock cells go to stderr: stdout stays a function of
               the seeds, comparable by digest across runs and [--jobs] *)
            Option.iter
              (Format.eprintf "%a@." Experiments.Report.pp)
              report.Experiments.Report.timings;
            match out with
            | None -> ()
            | Some dir ->
              let path =
                Filename.concat dir (report.Experiments.Report.id ^ ".csv")
              in
              let oc = open_out path in
              output_string oc (Experiments.Report.to_csv report);
              close_out oc)
          (e.Experiments.Registry.run ~quick ~jobs))
      entries
  in
  let doc = "regenerate one of the paper's figures (or 'all')" in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(const run $ id_arg $ quick_arg $ jobs_arg $ csv_arg $ json_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* platform                                                            *)
(* ------------------------------------------------------------------ *)

let platform_cmd =
  let scenario_arg =
    let doc = "Heterogeneity family: $(b,hom), $(b,homcomm) or $(b,het)." in
    Arg.(
      value
      & opt
          (enum
             [
               ("hom", Cluster.Gen.Homogeneous);
               ("homcomm", Cluster.Gen.Hom_comm_het_comp);
               ("het", Cluster.Gen.Heterogeneous);
             ])
          Cluster.Gen.Heterogeneous
      & info [ "scenario" ] ~doc)
  in
  let workers_arg =
    Arg.(value & opt int 11 & info [ "workers" ] ~doc:"Number of workers.")
  in
  let n_arg = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Matrix size.") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let run scenario workers n seed =
    let rng = Numeric.Prng.create ~seed in
    let f = Cluster.Gen.factors rng scenario ~workers in
    let p = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n f in
    Format.printf "%a@." Dls.Platform.pp p;
    (* Also print the spec string, ready to feed back into `solve -p`. *)
    let spec =
      String.concat ","
        (List.init workers (fun i ->
             let wk = Dls.Platform.get p i in
             Printf.sprintf "%s:%s:%s"
               (Q.to_string wk.Dls.Platform.c)
               (Q.to_string wk.Dls.Platform.w)
               (Q.to_string wk.Dls.Platform.d)))
    in
    Format.printf "spec: %s@." spec
  in
  let doc = "generate a random matrix-product platform" in
  Cmd.v
    (Cmd.info "platform" ~doc)
    Term.(const run $ scenario_arg $ workers_arg $ n_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* search                                                              *)
(* ------------------------------------------------------------------ *)

let search_cmd =
  let run platform discipline model jobs =
    let { Dls.Search.solved = sol; stats } =
      match discipline with
      | `Fifo -> Dls.Search.best_fifo ~model ~jobs platform
      | `Lifo -> Dls.Search.best_lifo ~model ~jobs platform
    in
    Format.printf "%a@." Dls.Lp_model.pp sol;
    Format.printf "search: %d nodes, %d pruned subtrees, %d exact LPs solved@."
      stats.Dls.Search.nodes stats.Dls.Search.pruned stats.Dls.Search.lps;
    let heuristic =
      match discipline with
      | `Fifo -> Dls.Fifo.optimal ~model platform
      | `Lifo -> Dls.Lifo.optimal ~model platform
    in
    if Q.equal heuristic.Dls.Lp_model.rho sol.Dls.Lp_model.rho then
      Format.printf
        "the ascending-c heuristic order is certified optimal for this platform@."
    else
      Format.printf
        "the ascending-c heuristic is NOT optimal here (heuristic %s < optimum %s)@."
        (Q.to_string heuristic.Dls.Lp_model.rho)
        (Q.to_string sol.Dls.Lp_model.rho)
  in
  let doc =
    "branch-and-bound: exact best FIFO or LIFO order (works outside Theorem \
     1's uniform-ratio hypothesis)"
  in
  Cmd.v
    (Cmd.info "search" ~doc)
    Term.(const run $ platform_arg $ discipline_arg $ model_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* multiround                                                          *)
(* ------------------------------------------------------------------ *)

let multiround_cmd =
  let rounds_arg =
    Arg.(value & opt int 1 & info [ "rounds" ] ~doc:"Number of rounds.")
  in
  let max_rounds_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sweep" ] ~docv:"R"
          ~doc:"Sweep round counts 1..$(docv) and print the throughputs.")
  in
  let latency_arg =
    Arg.(
      value
      & opt rational_conv Q.zero
      & info [ "latency" ] ~doc:"Per-message start-up latency (affine model).")
  in
  let run platform rounds max_rounds latency =
    let order = Dls.Fifo.order platform in
    match max_rounds with
    | Some max_rounds ->
      let sweep =
        Dls.Multiround.sweep_rounds platform ~send_latency:latency
          ~return_latency:latency ~order ~max_rounds ()
      in
      Format.printf "rounds  throughput@.";
      List.iter
        (fun { Dls.Multiround.rounds = r; throughput = rho } ->
          Format.printf "%6d  %s (~%.6g)@." r (Q.to_string rho) (Q.to_float rho))
        sweep
    | None -> (
      let cfg =
        Dls.Multiround.config ~send_latency:latency ~return_latency:latency
          ~rounds order
      in
      match Dls.Multiround.solve platform cfg with
      | Dls.Multiround.Too_slow ->
        Format.printf "infeasible: the latencies alone exceed the deadline@."
      | Dls.Multiround.Solved s ->
        Format.printf "throughput with %d round(s): %s (~%.6g)@." rounds
          (Q.to_string s.Dls.Multiround.rho)
          (Q.to_float s.Dls.Multiround.rho);
        Array.iteri
          (fun r per_round ->
            Format.printf "  round %d chunks: %s@." (r + 1)
              (String.concat " "
                 (Array.to_list (Array.map Q.to_string per_round))))
          s.Dls.Multiround.chunks)
  in
  let doc = "multi-round (multi-installment) schedules" in
  Cmd.v
    (Cmd.info "multiround" ~doc)
    Term.(const run $ platform_arg $ rounds_arg $ max_rounds_arg $ latency_arg)

(* ------------------------------------------------------------------ *)
(* tree                                                                *)
(* ------------------------------------------------------------------ *)

let tree_cmd =
  let spec_arg =
    let doc =
      "Tree specification, e.g. $(b,\"(node (1 (leaf 2)) (2 (node 1 (1 (leaf 1)))))\")."
    in
    Arg.(value & opt (some string) None & info [ "t"; "tree" ] ~doc)
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tree-file" ] ~docv:"FILE" ~doc:"Read the tree from $(docv).")
  in
  let run spec file =
    let text =
      match (spec, file) with
      | Some s, None -> s
      | None, Some path ->
        let ic = open_in path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      | _ ->
        prerr_endline "give exactly one of --tree or --tree-file";
        exit 2
    in
    match Dls.Tree_syntax.of_string text with
    | Error e ->
      prerr_endline ("parse error: " ^ e);
      exit 2
    | Ok tree ->
      Format.printf "%a@." Dls.Tree.pp tree;
      let rho = Dls.Tree.throughput tree in
      Format.printf "throughput: %s (~%.6g)@." (Q.to_string rho) (Q.to_float rho);
      (match Dls.Tree.validate tree with
      | Ok () -> Format.printf "schedule validates@."
      | Error msgs -> List.iter (Format.printf "INVALID: %s@.") msgs);
      List.iter
        (fun a ->
          if Q.sign a.Dls.Tree.load > 0 then
            Format.printf "  %-8s computes %-12s (recv [%s, %s])@."
              a.Dls.Tree.node_name
              (Q.to_string a.Dls.Tree.load)
              (Q.to_string a.Dls.Tree.receive_start)
              (Q.to_string a.Dls.Tree.receive_finish))
        (Dls.Tree.schedule tree)
  in
  let doc = "divisible loads on tree networks (no-return baseline)" in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const run $ spec_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* affine                                                              *)
(* ------------------------------------------------------------------ *)

let affine_cmd =
  let latency_arg =
    Arg.(
      value
      & opt rational_conv Q.zero
      & info [ "latency" ] ~doc:"Start-up latency of every message.")
  in
  let return_latency_arg =
    Arg.(
      value
      & opt (some rational_conv) None
      & info [ "return-latency" ]
          ~doc:"Start-up latency of return messages (defaults to --latency).")
  in
  let run platform latency return_latency =
    if Dls.Platform.size platform > 5 then
      Format.printf
        "warning: exhaustive subset+order search, %d workers may take a while@."
        (Dls.Platform.size platform);
    let a =
      Dls.Affine.of_platform ~send_latency:latency
        ~return_latency:(Option.value return_latency ~default:latency)
        platform
    in
    match Dls.Affine.best_fifo a with
    | Dls.Affine.Too_slow ->
      Format.printf "infeasible: latencies alone exceed the deadline@."
    | Dls.Affine.Solved s ->
      Format.printf "best FIFO throughput: %s (~%.6g)@."
        (Q.to_string s.Dls.Affine.rho)
        (Q.to_float s.Dls.Affine.rho);
      Format.printf "enrolled (%d of %d): %s@."
        (Array.length s.Dls.Affine.sigma1)
        (Dls.Platform.size platform)
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun i -> (Dls.Platform.get platform i).Dls.Platform.name)
                 s.Dls.Affine.sigma1)));
      Array.iteri
        (fun i alpha ->
          if Q.sign alpha > 0 then
            Format.printf "  %-6s alpha = %s@."
              (Dls.Platform.get platform i).Dls.Platform.name
              (Q.to_string alpha))
        s.Dls.Affine.alpha
  in
  let doc = "optimal FIFO under the affine cost model (start-up latencies)" in
  Cmd.v
    (Cmd.info "affine" ~doc)
    Term.(const run $ platform_arg $ latency_arg $ return_latency_arg)

(* ------------------------------------------------------------------ *)
(* sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let sensitivity_cmd =
  let factor_arg =
    Arg.(
      value
      & opt rational_conv (Q.of_ints 11 10)
      & info [ "factor" ] ~doc:"Scaling applied to each parameter (default 11/10).")
  in
  let run platform model factor =
    let rho = (Dls.Fifo.optimal ~model platform).Dls.Lp_model.rho in
    Format.printf "optimal FIFO throughput: %s (~%.6g)@." (Q.to_string rho)
      (Q.to_float rho);
    Format.printf "relative throughput change when scaling by %s:@."
      (Q.to_string factor);
    List.iter
      (fun (param, rel) ->
        Format.printf "  %-12s %+.4f%%@."
          (Dls.Sensitivity.parameter_to_string platform param)
          (100.0 *. Q.to_float rel))
      (Dls.Sensitivity.table ~model platform ~factor)
  in
  let doc = "exact sensitivity of the throughput to each platform parameter" in
  Cmd.v
    (Cmd.info "sensitivity" ~doc)
    Term.(const run $ platform_arg $ model_arg $ factor_arg)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Validate the fault plan in $(docv) against the platform and \
             report the degraded throughput, instead of generating one.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let severity_arg =
    Arg.(
      value
      & opt float 0.5
      & info [ "severity" ] ~docv:"X"
          ~doc:"Fault severity in [0, 1]: scales fault count and factor amplitudes.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt rational_conv Q.one
      & info [ "deadline" ] ~docv:"T"
          ~doc:"Campaign deadline the generated onsets are scaled to.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the plan to $(docv) instead of stdout.")
  in
  let die fmt = Format.kasprintf (fun s -> prerr_endline ("dls: " ^ s); exit 1) fmt in
  let summarize platform plan =
    let nominal = (Dls.Fifo.optimal platform).Dls.Lp_model.rho in
    let survivors = Dls.Faults.survivors platform plan in
    Format.printf "%d fault(s), %d of %d workers survive@."
      (List.length (Dls.Faults.faults plan))
      (List.length survivors) (Dls.Platform.size platform);
    if survivors = [] then Format.printf "degraded throughput: 0 (no survivors)@."
    else begin
      let degraded =
        Dls.Platform.restrict
          (Dls.Faults.degraded_platform platform plan)
          (Array.of_list survivors)
      in
      let rho' = (Dls.Fifo.optimal degraded).Dls.Lp_model.rho in
      Format.printf "nominal throughput:  %s (~%.6g)@." (Q.to_string nominal)
        (Q.to_float nominal);
      Format.printf "degraded throughput: %s (~%.6g, %.1f%% of nominal)@."
        (Q.to_string rho') (Q.to_float rho')
        (100.0 *. Q.to_float (Q.div rho' nominal))
    end
  in
  let run platform plan seed severity deadline out =
    match plan with
    | Some path -> (
      match Dls.Faults.read path with
      | Error e -> die "%s" (Dls.Errors.to_string e)
      | Ok plan -> (
        match Dls.Faults.validate_for platform plan with
        | Error e -> die "%s: %s" path (Dls.Errors.to_string e)
        | Ok () ->
          Format.printf "%s: OK@." path;
          summarize platform plan))
    | None -> (
      let rng = Numeric.Prng.create ~seed in
      let plan =
        Dls.Faults.gen rng
          ~workers:(Dls.Platform.size platform)
          ~deadline ~severity
      in
      match out with
      | None ->
        print_string (Dls.Faults.to_string plan);
        summarize platform plan
      | Some path ->
        Dls.Faults.write path plan;
        Format.printf "fault plan written to %s@." path;
        summarize platform plan)
  in
  let doc =
    "generate or validate deterministic fault plans for $(b,dls simulate --faults)"
  in
  Cmd.v
    (Cmd.info "faults" ~doc)
    Term.(
      const run $ platform_arg $ plan_arg $ seed_arg $ severity_arg
      $ deadline_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Validate the dumped schedule in $(docv) (exact rational \
             arithmetic, every paper invariant).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Validate the CSV execution trace in $(docv).")
  in
  let eps_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "eps" ]
          ~doc:
            "Overlap tolerance for $(b,--trace) input (floats).  The \
             default 0 is exact: touching intervals do not overlap.  Use \
             a positive tolerance only for noisy measured traces.")
  in
  let fuzz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Differentially fuzz $(docv) random platforms per regime: all \
             solver paths must agree, every schedule must validate, and \
             the certified fast pipeline must match the exact solver on \
             every FIFO and LIFO order under both port models.")
  in
  let fuzz_faults_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz-faults" ] ~docv:"N"
          ~doc:
            "Fuzz $(docv) random fault plans per regime through the online \
             re-planner: every recovery schedule must validate exactly on \
             the degraded platform and never do worse than no recovery.")
  in
  let severity_arg =
    Arg.(
      value
      & opt float 0.6
      & info [ "severity" ] ~docv:"X"
          ~doc:"Fault severity for $(b,--fuzz-faults), in [0, 1].")
  in
  let fuzz_multi_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz-multi" ] ~docv:"N"
          ~doc:
            "Fuzz $(docv) random multi-load workloads per regime: the \
             steady-state period must validate, squeeze the batch LP on a \
             long horizon from both sides, and single-load batches must \
             reproduce the paper's LP(2) bit-exactly.")
  in
  let fuzz_resolve_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz-resolve" ] ~docv:"N"
          ~doc:
            "Fuzz $(docv) random platform deltas per regime through the \
             re-solve from a neighbour: every answer certified from the \
             base's basis must be bit-identical to a cold exact solve (or \
             decline and fall back to the equally exact fast pipeline), and \
             shape-changing deltas must be refused.  Prints the neighbour \
             counters.")
  in
  let regime_arg =
    let regime =
      Arg.conv
        ( (fun s ->
            match Check.Fuzz.regime_of_string s with
            | Some r -> Ok r
            | None -> Error (`Msg (Printf.sprintf "unknown regime %S" s))),
          fun fmt r -> Format.pp_print_string fmt (Check.Fuzz.regime_to_string r) )
    in
    Arg.(
      value
      & opt (some regime) None
      & info [ "regime" ] ~docv:"Z"
          ~doc:
            "Restrict $(b,--fuzz) / $(b,--fuzz-faults) / $(b,--fuzz-multi) / \
             $(b,--fuzz-resolve) to one return-ratio regime: $(b,z<1), \
             $(b,z=1) or $(b,z>1) (default: all three).")
  in
  let platform_opt_arg =
    let doc =
      "Self-check a platform: solve FIFO and LIFO, validate both schedules \
       and re-check the LP certificates."
    in
    Arg.(value & opt (some platform_conv) None & info [ "p"; "platform" ] ~doc)
  in
  let report label = function
    | Ok () ->
      Format.printf "%s: OK@." label;
      true
    | Error msgs ->
      Format.printf "%s: %d violation(s)@." label (List.length msgs);
      List.iter (Format.printf "  %s@.") msgs;
      false
  in
  let check_schedule path =
    match Dls.Schedule_io.read path with
    | Error e ->
      Format.printf "%s: unreadable schedule: %s@." path (Dls.Errors.to_string e);
      false
    | Ok sched ->
      report path
        (Check.Validator.errors_of_result sched.Dls.Schedule.platform
           (Check.Validator.validate sched))
  in
  let check_trace eps path =
    match Sim.Trace_io.read path with
    | Error msg ->
      Format.printf "%s: unreadable trace: %s@." path msg;
      false
    | Ok trace ->
      let overlaps = Sim.Trace.one_port_violations ~eps trace in
      let precedence = Sim.Trace.precedence_violations ~eps trace in
      let msgs =
        List.map
          (fun { Sim.Trace.first = a; second = b } ->
            Printf.sprintf "one-port violation: %s(worker %d) overlaps %s(worker %d)"
              (Sim.Trace.kind_to_string a.Sim.Trace.kind)
              a.Sim.Trace.worker
              (Sim.Trace.kind_to_string b.Sim.Trace.kind)
              b.Sim.Trace.worker)
          overlaps
        @ precedence
      in
      report path (if msgs = [] then Ok () else Error msgs)
  in
  (* One fuzz matrix per regime, each reported under its label.  A
     failing case lists its messages, then each input: a one-line spec
     after its label, a serialized file (ending in a newline) as an
     indented block under it. *)
  let check_fuzz name ~noun run count regime =
    let regimes =
      match regime with Some r -> [ r ] | None -> Check.Fuzz.all_regimes
    in
    let indent = List.map (fun l -> "  " ^ l) in
    let input (label, text) =
      if String.ends_with ~suffix:"\n" text then
        (label ^ ":") :: indent (String.split_on_char '\n' (String.trim text))
      else [ label ^ ": " ^ text ]
    in
    let case (f : Check.Fuzz.failure) =
      Printf.sprintf "case %d:" f.index
      :: indent (f.messages @ List.concat_map input f.inputs)
    in
    List.for_all
      (fun r ->
        let label =
          Printf.sprintf "%s %s (%d %s)" name (Check.Fuzz.regime_to_string r)
            count noun
        in
        report label
          (match run r with [] -> Ok () | fs -> Error (List.concat_map case fs)))
      regimes
  in
  let check_platform platform =
    List.for_all
      (fun (label, sol) ->
        let schedule_ok =
          report (label ^ " schedule")
            (Check.Validator.errors_of_result platform
               (Check.Validator.validate_solved sol))
        in
        let certificate_ok =
          report (label ^ " LP certificate") (Check.Certificate.check sol)
        in
        schedule_ok && certificate_ok)
      [ ("fifo", Dls.Fifo.optimal platform); ("lifo", Dls.Lifo.optimal platform) ]
  in
  let run schedule trace eps fuzz fuzz_faults severity fuzz_multi fuzz_resolve
      regime platform jobs =
    let checks =
      List.concat
        [
          (match schedule with
          | Some path -> [ (fun () -> check_schedule path) ]
          | None -> []);
          (match trace with
          | Some path -> [ (fun () -> check_trace eps path) ]
          | None -> []);
          (match fuzz with
          | Some count ->
            [
              (fun () ->
                check_fuzz "fuzz" ~noun:"platforms"
                  (Check.Fuzz.run_matrix ~jobs ~fast:true ~count)
                  count regime);
            ]
          | None -> []);
          (match fuzz_faults with
          | Some count ->
            [
              (fun () ->
                check_fuzz "fuzz-faults"
                  ~noun:(Printf.sprintf "cases, severity %.2f" severity)
                  (Check.Fuzz.run_fault_matrix ~jobs ~count ~severity)
                  count regime);
            ]
          | None -> []);
          (match fuzz_multi with
          | Some count ->
            [
              (fun () ->
                check_fuzz "fuzz-multi" ~noun:"workloads"
                  (Check.Fuzz.run_multi_matrix ~jobs ~count)
                  count regime);
            ]
          | None -> []);
          (match fuzz_resolve with
          | Some count ->
            [
              (fun () ->
                let ok =
                  check_fuzz "fuzz-resolve" ~noun:"deltas"
                    (Check.Fuzz.run_resolve_matrix ~jobs ~count)
                    count regime
                in
                Format.printf "resolve:@.%a@." Dls.Lp_model.pp_resolve_stats
                  (Dls.Lp_model.resolve_stats ());
                ok);
            ]
          | None -> []);
          (match platform with
          | Some p -> [ (fun () -> check_platform p) ]
          | None -> []);
        ]
    in
    if checks = [] then begin
      prerr_endline
        "nothing to check: give --schedule, --trace, --fuzz, --fuzz-faults, \
         --fuzz-multi, --fuzz-resolve and/or --platform";
      exit 2
    end;
    (* Run every requested check before deciding the exit code. *)
    let ok = List.fold_left (fun acc f -> f () && acc) true checks in
    if not ok then exit 1
  in
  let doc =
    "validate schedules exactly: dumped schedules and traces, solver \
     self-checks, differential fuzzing of all solver paths"
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ schedule_arg $ trace_arg $ eps_arg $ fuzz_arg
      $ fuzz_faults_arg $ severity_arg $ fuzz_multi_arg $ fuzz_resolve_arg
      $ regime_arg $ platform_opt_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* lp-dump                                                             *)
(* ------------------------------------------------------------------ *)

let lp_dump_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  let run platform discipline model out =
    let order =
      match discipline with
      | `Fifo -> Dls.Fifo.order platform
      | `Lifo -> Dls.Lifo.order platform
    in
    let scenario =
      match discipline with
      | `Fifo -> Dls.Scenario.fifo_exn platform order
      | `Lifo -> Dls.Scenario.lifo_exn platform order
    in
    let text = Simplex.Lp_file.to_string (Dls.Lp_model.problem model scenario) in
    match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "LP written to %s@." path
  in
  let doc = "dump the scheduling linear program in LP-file format" in
  Cmd.v
    (Cmd.info "lp-dump" ~doc)
    Term.(const run $ platform_arg $ discipline_arg $ model_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* serve / client / loadgen                                            *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Serve on the Unix-domain socket $(docv).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with $(b,--port)).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Serve on TCP $(docv) (0 picks a free port).")

let address_of socket host port =
  match (socket, port) with
  | Some path, None -> Ok (Service.Server.Unix_socket path)
  | None, Some p -> Ok (Service.Server.Tcp (host, p))
  | Some _, Some _ -> Error "give either --socket or --port, not both"
  | None, None -> Error "an address is required (--socket PATH or --port N)"

(* [serve], [route] and [chaos] run until SIGTERM or SIGINT.  The
   handlers go in before [announce] prints the ready line, so a
   supervisor that signals on that line cannot kill the process. *)
let run_until_signal announce =
  let stop_flag = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  announce ();
  while not (Atomic.get stop_flag) do
    (try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done

let serve_cmd =
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission-queue bound; beyond it requests get $(b,overloaded).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request budget (cooperative); overruns answer $(b,timeout).")
  in
  let brownout_arg =
    Arg.(
      value & flag
      & info [ "brownout" ]
          ~doc:
            "Under sustained overload (three evaluations ending above 3/4 \
             queue capacity), force every solve onto the certified fast \
             pipeline (bit-identical answers, lower worst-case latency) \
             until three end at or below 1/4.")
  in
  let journal_max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "journal-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Store byte budget (with $(b,--store)): past it, the store is \
             compacted down to the latest record of each key this daemon's \
             warm cache still holds (counted in the $(b,compactions) stat).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store"; "journal" ] ~docv:"FILE"
          ~doc:
            "Crash-safe solution store, the daemon's only durable state: \
             every fresh response is appended to $(docv), and on a \
             warm-cache miss the daemon reads $(docv) before solving \
             ($(b,store_hits) / $(b,store_misses) in the stats), so a \
             restarted daemon answers repeat requests without solving.  \
             Many shards may share one file.  $(b,--journal) is another \
             name for this option.")
  in
  let stats_json_arg =
    Arg.(
      value & flag
      & info [ "stats-json" ]
          ~doc:
            "Print the final drain statistics as a JSON object (same fields \
             as the line format).")
  in
  let die fmt = Format.kasprintf (fun s -> prerr_endline ("dls: " ^ s); exit 1) fmt in
  let run socket host port jobs queue_cap timeout store journal_max_bytes
      brownout stats_json =
    let address =
      match address_of socket host port with
      | Ok a -> a
      | Error msg -> die "%s" msg
    in
    let cfg =
      {
        (Service.Server.default_config address) with
        Service.Server.jobs;
        queue_capacity = queue_cap;
        timeout;
        store;
        journal_max_bytes;
        brownout;
      }
    in
    match Service.Server.start cfg with
    | Error e -> die "%s" (Dls.Errors.to_string e)
    | Ok server ->
      run_until_signal (fun () ->
          Printf.printf
            "dls: serving on %s (jobs=%d queue=%d)\n%!"
            (Service.Endpoint.to_string (Service.Server.address server))
            cfg.Service.Server.jobs cfg.Service.Server.queue_capacity);
      prerr_endline "dls: draining";
      Service.Server.stop server;
      let final = Service.Server.stats server in
      if stats_json then print_endline (Service.Protocol.stats_to_json final)
      else
        print_endline
          (Service.Protocol.response_to_string
             (Service.Protocol.Ok_stats final))
  in
  let doc = "run the scheduling daemon (drains gracefully on SIGTERM)" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ jobs_arg $ queue_cap_arg
      $ timeout_arg $ store_arg $ journal_max_bytes_arg $ brownout_arg
      $ stats_json_arg)

let client_cmd =
  let requests_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request lines (quote each one); with none, lines are read from \
             standard input.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transport failures, transit corruption and $(b,overloaded) \
             up to $(docv) times on fresh connections, with capped exponential \
             backoff and a circuit breaker (0 = the naive single-attempt \
             client).  Safe because a request's canonical line fully \
             determines its response.")
  in
  let attempt_timeout_arg =
    Arg.(
      value & opt float 0.25
      & info [ "attempt-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt deadline when retrying (with $(b,--retries)).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Render $(b,stats) responses as a JSON object (same fields as \
             the line format); every other response keeps the line format.")
  in
  let run socket host port retries attempt_timeout json requests =
    let address =
      match address_of socket host port with
      | Ok a -> a
      | Error msg ->
        prerr_endline ("dls: " ^ msg);
        exit 2
    in
    let lines =
      match requests with
      | _ :: _ -> requests
      | [] ->
        let rec slurp acc =
          match input_line stdin with
          | line -> slurp (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        slurp []
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    let print_response resp =
      match resp with
      | Service.Protocol.Ok_stats s when json ->
        print_endline (Service.Protocol.stats_to_json s)
      | _ -> print_endline (Service.Protocol.response_to_string resp)
    in
    let outcome =
      if retries <= 0 then
        Service.Client.with_client address (fun client ->
            List.fold_left
              (fun all_ok line ->
                match Service.Client.request_raw client line with
                | Ok resp ->
                  print_response resp;
                  all_ok && Service.Protocol.is_ok resp
                | Error e ->
                  prerr_endline ("dls: " ^ Dls.Errors.to_string e);
                  false)
              true lines)
      else begin
        (* The retry loop is keyed on the canonical renderer, so lines
           are parsed locally first: a line that does not parse cannot
           be retried safely (or at all). *)
        let client =
          Service.Resilient.create
            {
              (Service.Resilient.default_config address) with
              Service.Resilient.attempts = retries + 1;
              attempt_timeout =
                (if attempt_timeout > 0. then Some attempt_timeout else None);
            }
        in
        let all_ok =
          List.fold_left
            (fun all_ok line ->
              match Service.Protocol.parse_request ~line:1 line with
              | Error e ->
                prerr_endline ("dls: " ^ Dls.Errors.to_string e);
                false
              | Ok req -> (
                match Service.Resilient.request client req with
                | Ok resp ->
                  print_response resp;
                  all_ok && Service.Protocol.is_ok resp
                | Error e ->
                  prerr_endline ("dls: " ^ Dls.Errors.to_string e);
                  false))
            true lines
        in
        Service.Resilient.close client;
        Ok all_ok
      end
    in
    match outcome with
    | Ok true -> ()
    | Ok false -> exit 1
    | Error e ->
      prerr_endline ("dls: " ^ Dls.Errors.to_string e);
      exit 2
  in
  let doc = "send request lines to a running daemon" in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ attempt_timeout_arg $ json_arg $ requests_arg)

let loadgen_cmd =
  let requests_arg =
    Arg.(
      value & opt int 100
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to send in total.")
  in
  let connections_arg =
    Arg.(
      value & opt int 4
      & info [ "connections" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Stream seed.")
  in
  let distinct_arg =
    Arg.(
      value & opt int 6
      & info [ "distinct" ] ~docv:"N"
          ~doc:
            "Distinct scenarios in the stream; small values are \
             duplicate-heavy and exercise single-flight batching.")
  in
  let multi_arg =
    Arg.(
      value & flag
      & info [ "multi" ]
          ~doc:
            "Mix $(b,solve-multi) requests into the stream (scenario slot 7; \
             the other slots are unchanged).")
  in
  let skew_arg =
    Arg.(
      value & opt float 0.
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Key-popularity skew: 0 draws scenarios uniformly (default); \
             $(docv) > 0 weights scenario rank r by (r+1)^-$(docv) \
             (Zipf-like hot head), still deterministic in the seed and \
             invariant under connection count.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the outcome to $(docv).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Use the resilient client (reconnect, backoff, circuit breaker) \
             with up to $(docv) retries per request; 0 keeps the naive \
             single-attempt client that reconnects but never retries.")
  in
  let attempt_timeout_arg =
    Arg.(
      value & opt float 0.25
      & info [ "attempt-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt deadline of the resilient client.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request answer-by deadline: $(b,ok) responses landing later \
             count as throughput but not goodput.")
  in
  let rps_arg =
    (* a rate that selects nothing is a usage error, as it is for
       [Loadgen.run] *)
    let rate =
      let parse s =
        match float_of_string_opt s with
        | Some r when r > 0. && Float.is_finite r -> Ok r
        | _ -> Error (`Msg (Printf.sprintf "%S is not a positive rate" s))
      in
      Arg.conv (parse, fun fmt r -> Format.fprintf fmt "%g" r)
    in
    Arg.(
      value
      & opt (some rate) None
      & info [ "rps" ] ~docv:"RATE"
          ~doc:
            "Open-loop mode: issue request $(i,i) at its seeded Poisson \
             arrival time at target rate $(docv) (> 0) instead of as fast as \
             the connections allow, and report offered vs achieved rate plus \
             the worst scheduling lag.  The arrival schedule is invariant in \
             $(b,--connections); only the issue interleaving changes.  \
             Without it, the classic closed loop runs.")
  in
  let run socket host port requests connections seed distinct multi skew json
      retries attempt_timeout deadline rps =
    let address =
      match address_of socket host port with
      | Ok a -> a
      | Error msg ->
        prerr_endline ("dls: " ^ msg);
        exit 2
    in
    let resilient =
      if retries <= 0 then None
      else
        Some
          {
            (Service.Resilient.default_config address) with
            Service.Resilient.attempts = retries + 1;
            attempt_timeout =
              (if attempt_timeout > 0. then Some attempt_timeout else None);
            jitter_seed = seed;
          }
    in
    let write_json path (o : Service.Loadgen.outcome) =
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"dls-loadgen/2\",\n\
        \  \"seed\": %d,\n\
        \  \"distinct\": %d,\n\
        \  \"skew\": %.3f,\n\
        \  \"connections\": %d,\n\
        \  \"retries\": %d,\n\
        \  \"sent\": %d,\n\
        \  \"ok\": %d,\n\
        \  \"overloaded\": %d,\n\
        \  \"timeouts\": %d,\n\
        \  \"shed\": %d,\n\
        \  \"failed\": %d,\n\
        \  \"goodput\": %d,\n\
        \  \"retried\": %d,\n\
        \  \"breaker_opens\": %d,\n\
        \  \"p50_ms\": %.3f,\n\
        \  \"p99_ms\": %.3f,\n\
        \  \"wall_s\": %.6f,\n\
        \  \"rps\": %.1f,\n\
        \  \"target_rps\": %.3f,\n\
        \  \"offered_rps\": %.3f,\n\
        \  \"max_lag_ms\": %.3f\n\
         }\n"
        seed distinct skew connections retries o.sent o.ok o.overloaded
        o.timeouts o.shed o.failed o.goodput o.retries o.breaker_opens o.p50_ms
        o.p99_ms o.wall_s o.rps (Option.value rps ~default:0.) o.offered_rps
        o.max_lag_ms;
      close_out oc
    in
    match
      Service.Loadgen.run ~multi ~skew ?resilient ?deadline_s:deadline ?rps
        address ~connections ~requests ~seed ~distinct ()
    with
    | Error e ->
      prerr_endline ("dls: " ^ Dls.Errors.to_string e);
      exit 2
    | Ok o ->
      Printf.printf
        "sent=%d ok=%d overloaded=%d timeouts=%d shed=%d failed=%d goodput=%d \
         retries=%d breaker_opens=%d p50=%.1fms p99=%.1fms wall=%.3fs \
         rps=%.1f\n"
        o.sent o.ok o.overloaded o.timeouts o.shed o.failed o.goodput o.retries
        o.breaker_opens o.p50_ms o.p99_ms o.wall_s o.rps;
      Option.iter
        (fun rps ->
          Printf.printf
            "open-loop: target=%.1frps offered=%.1frps achieved=%.1frps \
             max_lag=%.1fms\n"
            rps o.offered_rps o.rps o.max_lag_ms)
        rps;
      Option.iter (fun path -> write_json path o) json;
      if o.failed > 0 then exit 1
  in
  let doc = "replay the deterministic request stream against a daemon" in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ requests_arg
      $ connections_arg $ seed_arg $ distinct_arg $ multi_arg $ skew_arg
      $ json_arg $ retries_arg $ attempt_timeout_arg $ deadline_arg $ rps_arg)

let route_cmd =
  let shard_arg =
    Arg.(
      value & opt_all string []
      & info [ "shard" ] ~docv:"ADDR"
          ~doc:
            "Backend daemon shard (repeatable; at least one).  $(docv) is a \
             Unix-socket path when it contains a '/', $(b,HOST:PORT) when it \
             contains a ':', else a bare TCP port on 127.0.0.1.")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Resilient attempts per shard beyond the first; once a shard's \
             budget is spent the request fails over to the next shard on \
             the ring.")
  in
  let attempt_timeout_arg =
    Arg.(
      value & opt float 1.0
      & info [ "attempt-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt deadline on backend requests; 0 disables.")
  in
  let die fmt =
    Format.kasprintf (fun s -> prerr_endline ("dls: " ^ s); exit 1) fmt
  in
  let parse_shard s =
    if String.contains s '/' then Service.Server.Unix_socket s
    else
      match String.rindex_opt s ':' with
      | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when host <> "" -> Service.Server.Tcp (host, p)
        | _ -> die "bad shard address %S (want PATH, HOST:PORT or PORT)" s)
      | None -> (
        match int_of_string_opt s with
        | Some p -> Service.Server.Tcp ("127.0.0.1", p)
        | None -> die "bad shard address %S (want PATH, HOST:PORT or PORT)" s)
  in
  let run socket host port shards retries attempt_timeout =
    let address =
      match address_of socket host port with
      | Ok a -> a
      | Error msg -> die "%s" msg
    in
    if shards = [] then
      die "at least one --shard is required (repeat it per backend)";
    let shard_addresses = List.map parse_shard shards in
    let cfg =
      {
        (Service.Router.default_config address ~shard_addresses) with
        Service.Router.attempts = retries + 1;
        attempt_timeout =
          (if attempt_timeout > 0. then Some attempt_timeout else None);
      }
    in
    match Service.Router.start cfg with
    | Error e -> die "%s" (Dls.Errors.to_string e)
    | Ok router ->
      run_until_signal (fun () ->
          Printf.printf "dls: routing %s over %d shards\n%!"
            (Service.Endpoint.to_string (Service.Router.address router))
            (List.length shard_addresses));
      prerr_endline "dls: router draining";
      Service.Router.stop router;
      let s = Service.Router.stats router in
      Printf.printf
        "requests=%d routed=[%s] failovers=%d unavailable=%d local=%d \
         fanouts=%d hangups=%d\n"
        s.Service.Router.r_requests
        (String.concat ";"
           (Array.to_list
              (Array.map string_of_int s.Service.Router.r_routed)))
        s.Service.Router.r_failovers s.Service.Router.r_unavailable
        s.Service.Router.r_local s.Service.Router.r_fanouts
        s.Service.Router.r_hangups
  in
  let doc =
    "front a fleet of daemon shards with one consistent-hash endpoint"
  in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ shard_arg $ retries_arg
      $ attempt_timeout_arg)

let chaos_cmd =
  let listen_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen-socket" ] ~docv:"PATH"
          ~doc:"Unix socket the proxy listens on.")
  in
  let listen_host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "listen-host" ] ~docv:"HOST" ~doc:"TCP listen host.")
  in
  let listen_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen-port" ] ~docv:"PORT"
          ~doc:"TCP listen port; 0 picks a free one.")
  in
  let upstream_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "upstream-socket" ] ~docv:"PATH"
          ~doc:"Unix socket of the upstream daemon.")
  in
  let upstream_host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "upstream-host" ] ~docv:"HOST" ~doc:"TCP upstream host.")
  in
  let upstream_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "upstream-port" ] ~docv:"PORT" ~doc:"TCP upstream port.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Fault plan to inject (one $(b,conn C req R <fault>) per line); \
             without it a plan is drawn from $(b,--chaos-seed), \
             $(b,--conns) and $(b,--severity).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed of the generated plan (ignored with $(b,--plan)).")
  in
  let conns_arg =
    Arg.(
      value & opt int 64
      & info [ "conns" ] ~docv:"N"
          ~doc:"Connections covered by the generated plan.")
  in
  let severity_arg =
    Arg.(
      value & opt float 0.5
      & info [ "severity" ] ~docv:"S"
          ~doc:
            "Fraction in [0,1] of covered connections that get a fault \
             (every fourth connection always stays clean).")
  in
  let emit_plan_arg =
    Arg.(
      value & flag
      & info [ "emit-plan" ]
          ~doc:"Print the effective plan on standard output and exit.")
  in
  let die fmt =
    Format.kasprintf (fun s -> prerr_endline ("dls: " ^ s); exit 1) fmt
  in
  let run lsocket lhost lport usocket uhost uport plan_file seed conns severity
      emit_plan =
    let plan =
      match plan_file with
      | Some path ->
        let contents =
          try
            let ic = open_in_bin path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
          with Sys_error msg -> die "%s" msg
        in
        (match Service.Chaos.of_string contents with
        | Ok plan -> plan
        | Error e -> die "%s: %s" path (Dls.Errors.to_string e))
      | None -> Service.Chaos.gen ~seed ~conns ~severity
    in
    if emit_plan then print_string (Service.Chaos.to_string plan)
    else begin
      let listen =
        match (lsocket, lport) with
        | None, None ->
          (* No listen address given: default to a free TCP port. *)
          Service.Server.Tcp (lhost, 0)
        | _ -> (
          match address_of lsocket lhost lport with
          | Ok a -> a
          | Error msg -> die "chaos listen: %s" msg)
      in
      let upstream =
        match address_of usocket uhost uport with
        | Ok a -> a
        | Error _ ->
          die
            "chaos: an upstream is required (--upstream-socket PATH or \
             --upstream-port N)"
      in
      match Service.Chaos.start ~listen ~upstream plan with
      | Error e -> die "%s" (Dls.Errors.to_string e)
      | Ok proxy ->
        run_until_signal (fun () ->
            Printf.printf "dls: chaos proxy %s -> %s (%d planned faults)\n%!"
              (Service.Endpoint.to_string (Service.Chaos.address proxy))
              (Service.Endpoint.to_string upstream)
              (List.length plan));
        prerr_endline "dls: chaos proxy stopping";
        Service.Chaos.stop proxy
    end
  in
  let doc =
    "run the deterministic fault-injecting proxy in front of a daemon"
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(
      const run $ listen_socket_arg $ listen_host_arg $ listen_port_arg
      $ upstream_socket_arg $ upstream_host_arg $ upstream_port_arg $ plan_arg
      $ seed_arg $ conns_arg $ severity_arg $ emit_plan_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "divisible-load scheduling with return messages under the one-port model"
  in
  let info = Cmd.info "dls" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            solve_multi_cmd;
            bus_cmd;
            gantt_cmd;
            simulate_cmd;
            brute_cmd;
            search_cmd;
            multiround_cmd;
            tree_cmd;
            affine_cmd;
            sensitivity_cmd;
            faults_cmd;
            check_cmd;
            lp_dump_cmd;
            experiment_cmd;
            platform_cmd;
            serve_cmd;
            client_cmd;
            loadgen_cmd;
            route_cmd;
            chaos_cmd;
          ]))
