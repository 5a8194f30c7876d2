(* The open problem: what is the best pair of permutations?

   The paper closes with a conjecture: finding the jointly optimal
   (sigma1, sigma2) — the orders of initial and return messages — is
   probably NP-hard, and only the fixed disciplines (FIFO, LIFO) are
   solved.  This example explores the question experimentally on small
   platforms, where exhaustive search is still feasible:

     - how often is the optimal FIFO (Theorem 1) already globally
       optimal?
     - how large can the gap get?
     - what do the best general permutation pairs look like?

   Run with:  dune exec examples/open_problem.exe                     *)

module Q = Numeric.Rational

let describe platform (sol : Dls.Lp_model.solved) =
  let name i = (Dls.Platform.get platform i).Dls.Platform.name in
  let order a = String.concat " " (Array.to_list (Array.map name a)) in
  Printf.sprintf "sends: %s | returns: %s"
    (order sol.Dls.Lp_model.scenario.Dls.Scenario.sigma1)
    (order sol.Dls.Lp_model.scenario.Dls.Scenario.sigma2)

let () =
  let rng = Numeric.Prng.create ~seed:42 in
  let trials = 20 in
  let fifo_optimal = ref 0 and lifo_optimal = ref 0 in
  let worst_gap = ref 1.0 in
  let worst_example = ref None in
  Format.printf
    "Searching all (sigma1, sigma2) pairs on %d random 4-worker platforms...@.@."
    trials;
  for _ = 1 to trials do
    let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:4 in
    let p = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:150 f in
    let fifo = Dls.Fifo.optimal p in
    let lifo = Dls.Lifo.optimal p in
    let best = Dls.Brute.best_general p in
    if Q.equal fifo.Dls.Lp_model.rho best.Dls.Lp_model.rho then incr fifo_optimal;
    if Q.equal lifo.Dls.Lp_model.rho best.Dls.Lp_model.rho then incr lifo_optimal;
    let gap =
      Q.to_float fifo.Dls.Lp_model.rho /. Q.to_float best.Dls.Lp_model.rho
    in
    if gap < !worst_gap then begin
      worst_gap := gap;
      worst_example := Some (p, fifo, lifo, best)
    end
  done;
  Format.printf "optimal FIFO is globally optimal on %d/%d platforms@."
    !fifo_optimal trials;
  Format.printf "optimal LIFO is globally optimal on %d/%d platforms@."
    !lifo_optimal trials;
  Format.printf "worst FIFO/best ratio seen: %.4f@.@." !worst_gap;
  (match !worst_example with
  | None -> ()
  | Some (p, fifo, lifo, best) ->
    Format.printf "The platform with the largest FIFO gap:@.%a@." Dls.Platform.pp p;
    Format.printf "  optimal FIFO: rho ~ %.6g  (%s)@."
      (Q.to_float fifo.Dls.Lp_model.rho)
      (describe p fifo);
    Format.printf "  optimal LIFO: rho ~ %.6g  (%s)@."
      (Q.to_float lifo.Dls.Lp_model.rho)
      (describe p lifo);
    Format.printf "  best general: rho ~ %.6g  (%s)@.@."
      (Q.to_float best.Dls.Lp_model.rho)
      (describe p best);
    Format.printf
      "Note how the best general schedule decouples the two orders — the@.\
       combinatorial freedom the paper could not tame analytically.@.");
  (* A concrete hand-analyzable micro-instance. *)
  let p =
    Dls.Platform.make_exn
      [
        Dls.Platform.worker ~name:"fastC" ~c:Q.one ~w:(Q.of_int 4) ~d:Q.half ();
        Dls.Platform.worker ~name:"slowC" ~c:(Q.of_int 2) ~w:Q.one ~d:Q.one ();
      ]
  in
  let all = Dls.Brute.permutations 2 in
  Format.printf "All four scenarios of a 2-worker instance:@.";
  List.iter
    (fun sigma1 ->
      List.iter
        (fun sigma2 ->
          let sol = Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.make_exn p ~sigma1 ~sigma2) in
          Format.printf "  %-44s rho = %s (~%.5f)@." (describe p sol)
            (Q.to_string sol.Dls.Lp_model.rho)
            (Q.to_float sol.Dls.Lp_model.rho))
        all)
    all
