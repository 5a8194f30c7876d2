(* The paper's Section 5 application end-to-end: a campaign of 1000
   matrix products on a heterogeneous 11-worker cluster, scheduled with
   the three heuristics (INC_C, INC_W, LIFO) and executed on the
   simulated cluster with integer rounding and noise.

   Run with:  dune exec examples/matrix_campaign.exe                  *)

module Q = Numeric.Rational

let () =
  let n = 120 (* matrix size *) and total = 1000 (* products *) in
  let rng = Numeric.Prng.create ~seed:2005 in

  (* A random heterogeneous platform, speed-up factors 1-10 as in the
     paper's experiments. *)
  let factors = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:11 in
  let platform = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n factors in
  Format.printf
    "Simulated gdsdmi cluster, %dx%d products, %d items, 11 workers@." n n total;
  Format.printf "comm speed-ups: %s@."
    (String.concat " " (Array.to_list (Array.map string_of_int factors.Cluster.Gen.comm)));
  Format.printf "comp speed-ups: %s@.@."
    (String.concat " " (Array.to_list (Array.map string_of_int factors.Cluster.Gen.comp)));

  Format.printf "%-8s %14s %14s %9s %10s@." "strategy" "lp time (s)"
    "real time (s)" "real/lp" "enrolled";
  List.iter
    (fun h ->
      let m =
        Experiments.Campaign.measure_platform
          ~rng:(Numeric.Prng.split rng) ~n ~total platform h
      in
      Format.printf "%-8s %14.3f %14.3f %9.3f %10d@." (Dls.Heuristics.name h)
        m.Experiments.Campaign.lp_time m.Experiments.Campaign.real_time
        (m.Experiments.Campaign.real_time /. m.Experiments.Campaign.lp_time)
        m.Experiments.Campaign.workers_used)
    Dls.Heuristics.all;
  print_newline ();

  (* Show the integer rounding at work for INC_C: rational LP loads
     versus the integer item counts actually shipped. *)
  let sol = Dls.Heuristics.solve Dls.Heuristics.Inc_c platform in
  let loads = Dls.Rounding.integer_loads sol ~total in
  Format.printf "INC_C integer loads (%d items total):@." total;
  Array.iteri
    (fun i items ->
      if items > 0 then
        Format.printf "  %-4s %4d items (LP share %.2f)@."
          (Dls.Platform.get platform i).Dls.Platform.name items
          (Q.to_float sol.Dls.Lp_model.alpha.(i)
          *. float_of_int total
          /. Q.to_float sol.Dls.Lp_model.rho))
    loads;
  Format.printf "rounding imbalance: at most %s item@."
    (Q.to_string (Dls.Rounding.imbalance sol ~total))
