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

(* Positions in DFS leaf order.  [None] is the heuristic seed, placed
   before every leaf; [Some ranks] is a node, the candidate ranks of its
   prefix.  [precedes a b]: the leaf or seed [a] comes before every leaf
   under the node [b] (for two leaves: [a] comes first). *)
let precedes a b =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b ->
    let rec go i =
      i < Array.length b && (a.(i) < b.(i) || (a.(i) = b.(i) && go (i + 1)))
    in
    go 0

(* Three-tier bound test against the incumbent ({!Incumbent.prunes}, so a
   tie prunes only a subtree that the incumbent precedes).  The knapsack
   bound of [Bounds.prefix_bound] comes first: it dominates the LP
   relaxation bound below (its rows are a subset of the LP's
   constraints, relaxed one at a time), so whenever it already fails to
   beat the incumbent the LP bound would have failed too, and the node
   skips both LP solves without changing a decision.  Then a float
   solve: if it says the node clearly cannot be pruned, the exact LP is
   skipped; only when pruning looks possible is it confirmed in exact
   arithmetic, so no subtree is ever cut on floating-point evidence. *)
let prunable discipline model platform prefix remaining best ~from ~count_lp =
  let cheap =
    Bounds.prefix_bound ~model
      ~discipline:(discipline :> [ `Fifo | `Lifo | `Free ])
      platform ~prefix ~remaining
  in
  Incumbent.prunes best cheap ~from
  ||
  let problem = bound_problem discipline model platform prefix remaining in
  let inc = Q.to_float (Option.get (Incumbent.solved best)).Lp_model.rho in
  let clearly_unprunable =
    match Simplex.Float_solver.solve problem with
    | Simplex.Float_solver.Optimal s ->
      s.Simplex.Float_solver.value
      > inc +. (1e-6 *. Float.max 1.0 (Float.abs inc))
    | _ -> false
  in
  (not clearly_unprunable)
  && begin
    count_lp ();
    Incumbent.prunes best
      (Simplex.Solver.solve_exn problem).Simplex.Solver.value ~from
  end

(* The answer is the heuristic seed if it already achieves the optimal
   throughput, otherwise the first leaf in DFS order (children in
   ascending-[c] candidate order) that does.  After the root check, each
   root subtree is one task of the domain pool for every [jobs]; the
   tasks share one incumbent ({!Incumbent}), so the answer is the same
   for every [jobs], and with [jobs = 1] every decision is the
   sequential DFS's. *)
let search ?(jobs = 1) discipline model platform =
  let n = Platform.size platform in
  (* Branch in ascending-c order, which tends to find improvements
     early. *)
  let candidates = Fifo.order platform in
  let workers ranks = Array.map (Array.get candidates) ranks in
  let scenario_of ranks =
    match discipline with
    | `Fifo -> Scenario.fifo_exn platform (workers ranks)
    | `Lifo -> Scenario.lifo_exn platform (workers ranks)
  in
  let nodes = Atomic.make 0 and pruned = Atomic.make 0 in
  let lps = Atomic.make 1 in
  (* Incumbent: the Theorem 1 heuristic order (also the optimal LIFO
     order under uniform z, per the companion paper). *)
  let best = Incumbent.create ~before:precedes in
  Incumbent.offer best None
    (Solve.solve_exn ~mode:`Cached ~model (scenario_of (Array.init n Fun.id)));
  (* Visit the inner node [ranks]; [true] when its subtree is cut. *)
  let cut ranks remaining =
    Atomic.incr nodes;
    prunable discipline model platform (workers ranks) (workers remaining) best
      ~from:(Some ranks)
      ~count_lp:(fun () -> Atomic.incr lps)
    && (Atomic.incr pruned; true)
  in
  (* Leaf solves thread the domain's previous optimal basis through as
     a warm start; a hint only, so the answer is intact. *)
  let task warm root =
    let used = Array.make n false in
    let rec dfs prefix =
      let ranks = Array.of_list (List.rev prefix) in
      let remaining =
        Array.of_list (List.filter (fun r -> not used.(r)) (List.init n Fun.id))
      in
      if Array.length remaining = 0 then begin
        Atomic.incr nodes;
        Atomic.incr lps;
        let sol =
          Solve.solve_exn ~mode:`Cached ~model ?warm:!warm (scenario_of ranks)
        in
        warm := Some sol.Lp_model.basis;
        Incumbent.offer best (Some ranks) sol
      end
      else if not (cut ranks remaining) then
        Array.iter
          (fun r ->
            used.(r) <- true;
            dfs (r :: prefix);
            used.(r) <- false)
          remaining
    in
    used.(root) <- true;
    dfs [ root ]
  in
  let roots = Array.init n Fun.id in
  if not (cut [||] roots) then
    ignore
      (Parallel.Pool.run_local ~jobs ~init:(fun () -> ref None) task
         roots);
  {
    solved = Option.get (Incumbent.solved best);
    stats =
      {
        nodes = Atomic.get nodes;
        pruned = Atomic.get pruned;
        lps = Atomic.get lps;
      };
  }

let best_fifo ?(model = Lp_model.One_port) ?jobs platform =
  search ?jobs `Fifo model platform

let best_lifo ?(model = Lp_model.One_port) ?jobs platform =
  search ?jobs `Lifo model platform
