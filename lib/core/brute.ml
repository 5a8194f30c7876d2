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

(* [extend xs s] inserts the elements of [xs], last first, everywhere
   into every list of [s].  [extend l (Seq.return [])] enumerates the
   permutations of [l]; [extend head (Seq.return t)] is the block of
   consecutive permutations of [head @ tail] that the permutation [t] of
   [tail] heads. *)
let rec extend xs s =
  match xs with
  | [] -> s
  | x :: rest -> Seq.concat_map (insert_everywhere x) (extend rest s)

let perms l = extend l (Seq.return [])
let permutations_seq n = Seq.map Array.of_list (perms (List.init n Fun.id))
let permutations n = List.of_seq (permutations_seq n)

let factorial n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

(* A task of the search: the candidates at positions [lo, lo + size) of
   the enumeration, lazily, and optionally a bound that holds for all of
   them. *)
type block = {
  lo : int;
  size : int;
  bound : (unit -> Q.t) option;
  scenarios : Scenario.t Seq.t;
}

(* Solve one candidate, threading the previous optimal basis through as a
   warm start (a hint only — never changes the answer).  [fast = false]
   is the exact baseline: no floats, no cache. *)
let solve ~model ~fast warm s =
  if fast then begin
    let sol = Solve.solve_exn ~mode:`Cached ~model ?warm:!warm s in
    warm := Some sol.Lp_model.basis;
    sol
  end
  else Solve.solve_exn ~mode:`Exact ~model s

(* Two-tier bound test: the float knapsack bound first (a few
   microseconds), the exact rational bound — the only one allowed to
   decide — only when the float bound says pruning is plausible.  A
   float error in either direction is harmless: too high skips the
   exact confirmation (the candidate is solved as if never pruned), too
   low wastes one exact bound computation. *)
let cannot_beat ~model best s ~pos =
  match Incumbent.solved best with
  | None -> false
  | Some inc ->
    let r = Q.to_float inc.Lp_model.rho in
    Bounds.scenario_bound_float ~model s
    <= r +. (1e-9 *. Float.max 1.0 (Float.abs r))
    && Incumbent.prunes best (Bounds.scenario_bound ~model s) ~from:pos

(* The one engine, for every [jobs]: the blocks run through the domain
   pool, each domain keeping its warm basis between the blocks it claims,
   against one incumbent ordered by enumeration position.  The answer is
   the final incumbent, the first maximizer (see {!Incumbent}); with
   [jobs = 1] the blocks run in order and every decision is the
   sequential scan's. *)
let best_over ~model ~jobs ~fast ~prune blocks =
  let best = Incumbent.create ~before:( < ) in
  let run warm b =
    if
      prune
      && Option.fold b.bound ~none:false ~some:(fun bound ->
             Incumbent.prunes best (bound ()) ~from:b.lo)
    then Lp_model.note_pruned b.size
    else
      Seq.iteri
        (fun i s ->
          let pos = b.lo + i in
          if prune && cannot_beat ~model best s ~pos then
            Lp_model.note_pruned 1
          else Incumbent.offer best pos (solve ~model ~fast warm s))
        b.scenarios
  in
  ignore
    (Parallel.Pool.run_local ~jobs ~init:(fun () -> ref None) run
       blocks);
  match Incumbent.solved best with
  | Some b -> b
  | None -> invalid_arg "Brute.best_over: empty scenario list"

(* The orders cut into blocks: each permutation of the last [min n 4]
   indices heads the block of its extensions, so a few dozen blocks
   spread over the domains and no order is built ahead of its turn. *)
let order_blocks make platform =
  let n = Platform.size platform in
  let k = min n 4 in
  let size = factorial n / factorial k in
  let head = List.init (n - k) Fun.id in
  Array.of_seq
    (Seq.mapi
       (fun i tail ->
         {
           lo = i * size;
           size;
           bound = None;
           scenarios =
             Seq.map
               (fun ord -> make platform (Array.of_list ord))
               (extend head (Seq.return tail));
         })
       (perms (List.init k (fun j -> n - k + j))))

let best_fifo ?(model = Lp_model.One_port) ?(jobs = 1) ?(fast = true)
    ?(prune = true) platform =
  best_over ~model ~jobs ~fast ~prune (order_blocks Scenario.fifo_exn platform)

let best_lifo ?(model = Lp_model.One_port) ?(jobs = 1) ?(fast = true)
    ?(prune = true) platform =
  best_over ~model ~jobs ~fast ~prune (order_blocks Scenario.lifo_exn platform)

(* One block per sigma1: [prefix_bound ~discipline:`Free] holds for every
   sigma2, so when it cannot beat the incumbent the whole [n!]-wide block
   is skipped at once. *)
let best_general ?(model = Lp_model.One_port) ?(jobs = 1) ?(fast = true)
    ?(prune = true) platform =
  let n = Platform.size platform in
  let size = factorial n in
  best_over ~model ~jobs ~fast ~prune
    (Array.of_seq
       (Seq.mapi
          (fun i sigma1 ->
            {
              lo = i * size;
              size;
              bound =
                Some
                  (fun () ->
                    Bounds.prefix_bound ~model ~discipline:`Free platform
                      ~prefix:sigma1 ~remaining:[||]);
              scenarios =
                Seq.map
                  (fun sigma2 -> Scenario.make_exn platform ~sigma1 ~sigma2)
                  (permutations_seq n);
            })
          (permutations_seq n)))
