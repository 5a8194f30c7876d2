module Q = Numeric.Rational
open Q.Infix

type stats = { nodes : int; pruned : int; lps : int }
type outcome = { solved : Lp_model.solved; stats : stats }

(* Relaxation bound for a fixed FIFO prefix (ordered) and a set of
   unplaced workers.  Exact deadline rows for the prefix; optimistic
   rows for the unplaced; the full one-port row.  The paper's idle
   variables are omitted: in a pure-[<=] program [chain + x <= 1, x >= 0]
   is equivalent to [chain <= 1], and halving the variable count speeds
   every pivot up. *)
let bound_problem discipline model platform prefix remaining =
  let qp = Array.length prefix and qr = Array.length remaining in
  let n = qp + qr in
  let wk slot = Platform.get platform slot in
  let all = Array.append prefix remaining in
  let constraints = ref [] in
  let add coeffs rhs =
    constraints := Simplex.Problem.constr coeffs Simplex.Problem.Le rhs :: !constraints
  in
  (* prefix deadlines: exact under any completion.  FIFO: position k
     waits for sends up to k and for the returns of positions >= k,
     which include every unplaced worker.  LIFO: position k's sends and
     returns both range over positions <= k only, all in the prefix. *)
  for k = 0 to qp - 1 do
    let coeffs = Array.make n Q.zero in
    for j = 0 to n - 1 do
      let w = wk all.(j) in
      let contrib = ref Q.zero in
      (match discipline with
      | `Fifo ->
        if j <= k && j < qp then contrib := !contrib +/ w.Platform.c;
        if j >= k || j >= qp then contrib := !contrib +/ w.Platform.d
      | `Lifo ->
        if j <= k then contrib := !contrib +/ (w.Platform.c +/ w.Platform.d));
      if j = k then contrib := !contrib +/ w.Platform.w;
      coeffs.(j) <- !contrib
    done;
    add coeffs Q.one
  done;
  (* unplaced workers: optimistic completion.  FIFO: the prefix sends
     precede its own chain.  LIFO: additionally, every prefix worker
     returns after it, so the whole prefix return block is in its way. *)
  for k = qp to n - 1 do
    let coeffs = Array.make n Q.zero in
    for j = 0 to qp - 1 do
      let w = wk all.(j) in
      coeffs.(j) <-
        (match discipline with
        | `Fifo -> w.Platform.c
        | `Lifo -> w.Platform.c +/ w.Platform.d)
    done;
    let w = wk all.(k) in
    coeffs.(k) <- w.Platform.c +/ w.Platform.w +/ w.Platform.d;
    add coeffs Q.one
  done;
  (match model with
  | Lp_model.Two_port -> ()
  | Lp_model.One_port ->
    let coeffs = Array.make n Q.zero in
    for j = 0 to n - 1 do
      let w = wk all.(j) in
      coeffs.(j) <- w.Platform.c +/ w.Platform.d
    done;
    add coeffs Q.one);
  let objective = Array.make n Q.one in
  Simplex.Problem.make Simplex.Problem.Maximize objective (List.rev !constraints)

(* Two-tier bound test: a float solve first — if it says the node cannot
   be pruned (bound clearly above the incumbent) we skip the exact LP
   entirely; only when pruning looks possible do we confirm with exact
   arithmetic, so no subtree is ever cut on floating-point evidence.

   Two thresholds keep the parallel search canonical:
   - [local] is the task's own incumbent; pruning is NON-strict
     ([bound <= local]), exactly as in the sequential search;
   - [shared] is the best throughput any concurrent task has published;
     pruning against it is STRICT ([bound < shared]).  An optimal
     subtree has [bound >= rho*] and [shared <= rho*] at all times, so
     strict cross-task pruning can never cut the subtree holding the
     canonical optimum, whereas non-strict pruning could.
   A sequential caller passes [shared = local], making the combined test
   collapse to the classic [bound <= incumbent]. *)
let prunable discipline model platform prefix remaining ~local ~shared ~count_lp =
  (* Cheapest test first: the knapsack bound of [Bounds.prefix_bound]
     dominates the LP relaxation bound below (its rows are a subset of
     the LP's constraints, relaxed one at a time), so whenever it already
     fails to beat the incumbent the LP bound would have failed too.  The
     pruning decision — and hence the canonical answer — is unchanged;
     the node just skips both LP solves. *)
  let cheap =
    Bounds.prefix_bound ~model
      ~discipline:(discipline :> [ `Fifo | `Lifo | `Free ])
      platform ~prefix ~remaining
  in
  if Q.compare cheap local <= 0 || Q.compare cheap shared < 0 then true
  else
  let problem = bound_problem discipline model platform prefix remaining in
  let inc = Q.to_float (Q.max local shared) in
  let clearly_unprunable =
    match Simplex.Float_solver.solve problem with
    | Simplex.Float_solver.Optimal s ->
      s.Simplex.Float_solver.value > inc +. (1e-6 *. Float.max 1.0 (Float.abs inc))
    | _ -> false
  in
  if clearly_unprunable then false
  else begin
    count_lp ();
    let bound = (Simplex.Solver.solve_exn problem).Simplex.Solver.value in
    Q.compare bound local <= 0 || Q.compare bound shared < 0
  end

(* The canonical result — returned for every [jobs] — is the one of the
   sequential search: the heuristic seed if it already achieves the
   optimal throughput, otherwise the first leaf in DFS order (children
   in ascending-[c] candidate order) that does.  The parallel search
   reproduces it by (a) giving every root subtree its own task with a
   private incumbent seeded at the heuristic throughput, (b) only
   pruning strictly against the shared cross-task bound, and (c)
   reducing task results in subtree order with a strict comparison. *)
let search ?(jobs = 1) discipline model platform =
  let n = Platform.size platform in
  let scenario_of order =
    match discipline with
    | `Fifo -> Scenario.fifo_exn platform order
    | `Lifo -> Scenario.lifo_exn platform order
  in
  (* Incumbent: the Theorem 1 heuristic order (also the optimal LIFO
     order under uniform z, per the companion paper). *)
  let heuristic = Solve.solve_exn ~mode:`Cached ~model (scenario_of (Fifo.order platform)) in
  (* Branch in ascending-c order, which tends to find improvements
     early. *)
  let candidates = Fifo.order platform in
  if jobs <= 1 then begin
    let nodes = ref 0 and pruned = ref 0 and lps = ref 1 in
    (* Leaf solves thread the previous optimal basis through as a warm
       start; a hint only, so the canonical-answer contract is intact. *)
    let warm = ref None in
    let solve_order order =
      incr lps;
      let sol = Solve.solve_exn ~mode:`Cached ~model ?warm:!warm (scenario_of order) in
      warm := Some sol.Lp_model.basis;
      sol
    in
    let incumbent = ref heuristic in
    let rec dfs prefix used =
      incr nodes;
      let remaining =
        Array.of_list
          (List.filter (fun i -> not used.(i)) (Array.to_list candidates))
      in
      if Array.length remaining = 0 then begin
        let sol = solve_order (Array.of_list (List.rev prefix)) in
        if sol.Lp_model.rho >/ !incumbent.Lp_model.rho then incumbent := sol
      end
      else if
        prunable discipline model platform
          (Array.of_list (List.rev prefix))
          remaining ~local:!incumbent.Lp_model.rho ~shared:!incumbent.Lp_model.rho
          ~count_lp:(fun () -> incr lps)
      then incr pruned
      else
        Array.iter
          (fun i ->
            used.(i) <- true;
            dfs (i :: prefix) used;
            used.(i) <- false)
          remaining
    in
    dfs [] (Array.make n false);
    { solved = !incumbent; stats = { nodes = !nodes; pruned = !pruned; lps = !lps } }
  end
  else begin
    let root_lps = ref 0 in
    (* Root node: same prune check the sequential search performs before
       descending. *)
    if
      prunable discipline model platform [||] candidates
        ~local:heuristic.Lp_model.rho ~shared:heuristic.Lp_model.rho
        ~count_lp:(fun () -> incr root_lps)
    then
      { solved = heuristic; stats = { nodes = 1; pruned = 1; lps = 1 + !root_lps } }
    else begin
      let shared = Atomic.make heuristic.Lp_model.rho in
      let rec publish r =
        let cur = Atomic.get shared in
        if Q.compare r cur > 0 && not (Atomic.compare_and_set shared cur r) then
          publish r
      in
      let task root =
        let nodes = ref 0 and pruned = ref 0 and lps = ref 0 in
        let warm = ref None in
        let solve_order order =
          incr lps;
          let sol = Solve.solve_exn ~mode:`Cached ~model ?warm:!warm (scenario_of order) in
          warm := Some sol.Lp_model.basis;
          sol
        in
        let local = ref heuristic.Lp_model.rho in
        let best = ref None in
        let used = Array.make n false in
        let rec dfs prefix =
          incr nodes;
          let remaining =
            Array.of_list
              (List.filter (fun i -> not used.(i)) (Array.to_list candidates))
          in
          if Array.length remaining = 0 then begin
            let sol = solve_order (Array.of_list (List.rev prefix)) in
            if sol.Lp_model.rho >/ !local then begin
              local := sol.Lp_model.rho;
              best := Some sol;
              publish sol.Lp_model.rho
            end
          end
          else if
            prunable discipline model platform
              (Array.of_list (List.rev prefix))
              remaining ~local:!local ~shared:(Atomic.get shared)
              ~count_lp:(fun () -> incr lps)
          then incr pruned
          else
            Array.iter
              (fun i ->
                used.(i) <- true;
                dfs (i :: prefix);
                used.(i) <- false)
              remaining
        in
        used.(root) <- true;
        dfs [ root ];
        (!best, !nodes, !pruned, !lps)
      in
      (* One task per root subtree; chunk 1 so each domain claims whole
         subtrees. *)
      let results = Parallel.Pool.run ~jobs ~chunk:1 task candidates in
      let best = ref heuristic in
      let nodes = ref 1 and pruned = ref 0 and lps = ref (1 + !root_lps) in
      Array.iter
        (fun (b, tn, tp, tl) ->
          (match b with
          | Some sol when sol.Lp_model.rho >/ !best.Lp_model.rho -> best := sol
          | Some _ | None -> ());
          nodes := !nodes + tn;
          pruned := !pruned + tp;
          lps := !lps + tl)
        results;
      { solved = !best; stats = { nodes = !nodes; pruned = !pruned; lps = !lps } }
    end
  end

let best_fifo ?(model = Lp_model.One_port) ?jobs platform =
  search ?jobs `Fifo model platform

let best_lifo ?(model = Lp_model.One_port) ?jobs platform =
  search ?jobs `Lifo model platform
