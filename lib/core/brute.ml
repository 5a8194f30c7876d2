module Q = Numeric.Rational

(* Lazy permutation enumeration.  The order is exactly the one the
   classic list recursion produced ([insert_everywhere] of the head into
   every permutation of the tail), because downstream tie-breaking is
   "first maximizer in enumeration order": changing the order would
   change which optimal scenario is returned. *)
let insert_everywhere x l =
  let rec go acc l () =
    let here = List.rev_append acc (x :: l) in
    match l with
    | [] -> Seq.Cons (here, Seq.empty)
    | y :: rest -> Seq.Cons (here, go (y :: acc) rest)
  in
  go [] l

let rec perms l =
  match l with
  | [] -> Seq.return []
  | x :: rest -> Seq.concat_map (insert_everywhere x) (perms rest)

let permutations_seq n = Seq.map Array.of_list (perms (List.init n Fun.id))
let permutations n = List.of_seq (permutations_seq n)

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

(* Solve one candidate, threading the previous optimal basis through as a
   warm start (a hint only — never changes the answer) and keeping the
   first maximizer under strict [>].  [fast = false] is the exact
   baseline: no floats, no cache. *)
let consider ~model ~fast ~best ~warm s =
  let sol =
    if fast then Solve.solve_exn ~mode:`Cached ~model ?warm:!warm s
    else Solve.solve_exn ~mode:`Exact ~model s
  in
  if fast then warm := Some sol.Lp_model.basis;
  (match !best with
  | Some b when Q.compare sol.Lp_model.rho b.Lp_model.rho <= 0 -> ()
  | Some _ | None -> best := Some sol);
  sol.Lp_model.rho

(* Two-tier bound test: the float knapsack bound first (a few
   microseconds), the exact rational bound — the only one allowed to
   decide — only when the float bound says pruning is plausible.  A
   float error in either direction is harmless: too high skips the
   exact confirmation (the candidate is solved as if never pruned), too
   low wastes one exact bound computation.  [exact_le]: non-strict test
   against a sequential incumbent; strict against a shared parallel
   one. *)
let bound_cannot_beat ~model s incumbent ~exact_le =
  let inc = Q.to_float incumbent in
  Bounds.scenario_bound_float ~model s
  <= inc +. (1e-9 *. Float.max 1.0 (Float.abs inc))
  &&
  let c = Q.compare (Bounds.scenario_bound ~model s) incumbent in
  if exact_le then c <= 0 else c < 0

(* Sequential engine: candidates are consumed lazily in enumeration
   order; a candidate is skipped when its cheap bound cannot beat the
   incumbent (non-strict: a skipped candidate can tie the incumbent but
   never precede it, so the first maximizer survives). *)
let seq_best ~model ~fast ~prune scenarios =
  let best = ref None in
  let warm = ref None in
  Seq.iter
    (fun s ->
      let skip =
        prune
        &&
        match !best with
        | None -> false
        | Some (b : Lp_model.solved) ->
          bound_cannot_beat ~model s b.Lp_model.rho ~exact_le:true
      in
      if skip then Lp_model.note_pruned 1
      else ignore (consider ~model ~fast ~best ~warm s))
    scenarios;
  match !best with
  | Some b -> b
  | None -> invalid_arg "Brute.best_over: empty scenario list"

(* Parallel engine: every candidate is solved (or pruned) independently;
   pruning is STRICT against the best throughput any domain has
   published.  [shared <= rho*] at all times, so [bound < shared] implies
   the candidate is not a maximizer — no candidate tying the optimum is
   ever skipped, and the sequential reduction below returns the first
   maximizer in enumeration order, bit-identical to [jobs = 1].  Warm
   bases live in per-domain scratch state ({!Parallel.Pool.run_local}). *)
let par_best ~model ~jobs ~fast ~prune scenarios =
  if Array.length scenarios = 0 then
    invalid_arg "Brute.best_over: empty scenario list";
  let shared = Atomic.make Q.zero in
  let rec publish r =
    let cur = Atomic.get shared in
    if Q.compare r cur > 0 && not (Atomic.compare_and_set shared cur r) then
      publish r
  in
  let task warm s =
    if
      prune
      (* Snapshot of the shared incumbent: it only grows, so pruning
         against an older (smaller) value is merely conservative. *)
      && bound_cannot_beat ~model s (Atomic.get shared) ~exact_le:false
    then begin
      Lp_model.note_pruned 1;
      None
    end
    else begin
      let best = ref None in
      publish (consider ~model ~fast ~best ~warm s);
      !best
    end
  in
  let results =
    Parallel.Pool.run_local ~jobs ~init:(fun () -> ref None) task scenarios
  in
  let best = ref None in
  Array.iter
    (fun r ->
      match (r, !best) with
      | None, _ -> ()
      | Some (sol : Lp_model.solved), Some (b : Lp_model.solved)
        when Q.compare sol.Lp_model.rho b.Lp_model.rho <= 0 ->
        ()
      | Some sol, _ -> best := Some sol)
    results;
  match !best with
  | Some b -> b
  | None -> assert false (* the first candidate is never pruned *)

let best_of ~model ~jobs ~fast ~prune scenarios =
  if jobs <= 1 then seq_best ~model ~fast ~prune scenarios
  else par_best ~model ~jobs ~fast ~prune (Array.of_seq scenarios)

let best_fifo ?(model = Lp_model.One_port) ?(jobs = 1) ?(fast = true)
    ?(prune = true) platform =
  best_of ~model ~jobs ~fast ~prune
    (Seq.map
       (fun ord -> Scenario.fifo_exn platform ord)
       (permutations_seq (Platform.size platform)))

let best_lifo ?(model = Lp_model.One_port) ?(jobs = 1) ?(fast = true)
    ?(prune = true) platform =
  best_of ~model ~jobs ~fast ~prune
    (Seq.map
       (fun ord -> Scenario.lifo_exn platform ord)
       (permutations_seq (Platform.size platform)))

let best_general ?(model = Lp_model.One_port) ?(jobs = 1) ?(fast = true)
    ?(prune = true) platform =
  let n = Platform.size platform in
  if jobs <= 1 then begin
    (* Branch-and-bound over sigma1 blocks: [prefix_bound ~discipline:`Free]
       holds for every sigma2, so when it cannot beat the incumbent the
       whole [n!]-wide block is skipped at once. *)
    let best = ref None in
    let warm = ref None in
    let block = factorial n in
    Seq.iter
      (fun sigma1 ->
        let block_skip =
          prune
          &&
          match !best with
          | None -> false
          | Some (b : Lp_model.solved) ->
            Q.compare
              (Bounds.prefix_bound ~model ~discipline:`Free platform
                 ~prefix:sigma1 ~remaining:[||])
              b.Lp_model.rho
            <= 0
        in
        if block_skip then Lp_model.note_pruned block
        else
          Seq.iter
            (fun sigma2 ->
              let s = Scenario.make_exn platform ~sigma1 ~sigma2 in
              let skip =
                prune
                &&
                match !best with
                | None -> false
                | Some (b : Lp_model.solved) ->
                  bound_cannot_beat ~model s b.Lp_model.rho ~exact_le:true
              in
              if skip then Lp_model.note_pruned 1
              else ignore (consider ~model ~fast ~best ~warm s))
            (permutations_seq n))
      (permutations_seq n);
    match !best with
    | Some b -> b
    | None -> invalid_arg "Brute.best_over: empty scenario list"
  end
  else
    par_best ~model ~jobs ~fast ~prune
      (Array.of_seq
         (Seq.concat_map
            (fun sigma1 ->
              Seq.map
                (fun sigma2 -> Scenario.make_exn platform ~sigma1 ~sigma2)
                (permutations_seq n))
            (permutations_seq n)))
