module Q = Numeric.Rational

type model = One_port | Two_port

type solved = {
  scenario : Scenario.t;
  model : model;
  rho : Q.t;
  alpha : Q.t array;
  idle : Q.t array;
  pivots : int;
  basis : int array;
}

(* ------------------------------------------------------------------ *)
(* Fast-pipeline counters.  Process-wide atomics: enumeration runs across
   domains, and the numbers are diagnostics, so relaxed increments are
   fine. *)

type pipeline_stats = {
  float_wins : int;
  warm_wins : int;
  exact_fallbacks : int;
  pruned : int;
  float_pivots : int;
  exact_pivots : int;
}

let float_wins = Atomic.make 0
let warm_wins = Atomic.make 0
let exact_fallbacks = Atomic.make 0
let pruned_nodes = Atomic.make 0
let float_pivots = Atomic.make 0
let exact_pivots = Atomic.make 0
let bump counter n = ignore (Atomic.fetch_and_add counter n)

let pipeline_stats () =
  {
    float_wins = Atomic.get float_wins;
    warm_wins = Atomic.get warm_wins;
    exact_fallbacks = Atomic.get exact_fallbacks;
    pruned = Atomic.get pruned_nodes;
    float_pivots = Atomic.get float_pivots;
    exact_pivots = Atomic.get exact_pivots;
  }

let note_pruned n = bump pruned_nodes n

let pp_pipeline_stats fmt s =
  Format.fprintf fmt
    "@[<v>float-path wins:  %d@,warm-start wins:  %d@,exact fallbacks:  %d@,\
     pruned nodes:     %d@,float pivots:     %d@,exact pivots:     %d@]"
    s.float_wins s.warm_wins s.exact_fallbacks s.pruned s.float_pivots
    s.exact_pivots

let problem model (s : Scenario.t) =
  let q = Scenario.num_enrolled s in
  let wk k = Platform.get s.Scenario.platform s.Scenario.sigma1.(k) in
  (* Position of each enrolled worker (by sigma1 slot) in sigma2. *)
  let return_pos =
    Array.init q (fun k -> Scenario.return_position s s.Scenario.sigma1.(k))
  in
  (* Variables: alpha_0..alpha_{q-1} then x_0..x_{q-1}, sigma1 order. *)
  let nvars = 2 * q in
  let names =
    Array.init nvars (fun v ->
        if v < q then Printf.sprintf "alpha_%s" (wk v).Platform.name
        else Printf.sprintf "x_%s" (wk (v - q)).Platform.name)
  in
  let objective =
    Array.init nvars (fun v -> if v < q then Q.one else Q.zero)
  in
  let deadline k =
    let coeffs = Array.make nvars Q.zero in
    for j = 0 to q - 1 do
      let contrib = ref Q.zero in
      (* data transfers the master performs no later than P_{sigma1(k)}'s *)
      if j <= k then contrib := Q.add !contrib (wk j).Platform.c;
      (* result transfers no earlier than P's in sigma2 order *)
      if return_pos.(j) >= return_pos.(k) then
        contrib := Q.add !contrib (wk j).Platform.d;
      if j = k then contrib := Q.add !contrib (wk j).Platform.w;
      coeffs.(j) <- !contrib
    done;
    coeffs.(q + k) <- Q.one;
    Simplex.Problem.constr coeffs Simplex.Problem.Le Q.one
  in
  let constraints = List.init q deadline in
  let constraints =
    match model with
    | Two_port -> constraints
    | One_port ->
      let coeffs = Array.make nvars Q.zero in
      for j = 0 to q - 1 do
        coeffs.(j) <- Q.add (wk j).Platform.c (wk j).Platform.d
      done;
      constraints @ [ Simplex.Problem.constr coeffs Simplex.Problem.Le Q.one ]
  in
  Simplex.Problem.make ~names Simplex.Problem.Maximize objective constraints

(* [idle] is canonical, not read off the simplex point: it is the gap
   between the worker's compute finish and its return start in the
   canonical packed timeline (sends packed from 0, returns packed
   against the horizon — exactly [Schedule.of_solved]'s layout).  The
   LP's own idle variable duplicates its row's slack column, so the
   split between them depends on the pivot path; the gap depends only
   on [alpha], which keeps the two solver pipelines bit-identical.  The
   gap is 1 minus the worker's deadline row without its idle variable:
   the prefix of [alpha c] in sigma1 order, the worker's own [alpha w],
   and the suffix of [alpha d] in sigma2 order.

   [gaps alpha] computes them in sigma1 order over one denominator.
   Worker [j]'s [(c, w, d)] is [(c', w', d') / l_j] with integers
   [c', w', d'] ([l_j] the lcm of their denominators), and
   [alpha_j / l_j = a_j / m] with one common denominator [m], so every
   term [alpha_j x_j] is the integer [a_j x'_j] over [m]. *)
let gaps (s : Scenario.t) alpha =
  let module I = Numeric.Integer in
  let q = Array.length alpha in
  let cols =
    Array.map
      (fun i ->
        let wk = Platform.get s.Scenario.platform i in
        Q.common_denominator [| wk.Platform.c; wk.Platform.w; wk.Platform.d |])
      s.Scenario.sigma1
  in
  let a, m =
    Q.common_denominator (Array.mapi (fun k x -> Q.div x (Q.of_integer (snd cols.(k)))) alpha)
  in
  let term k f = I.mul a.(k) (fst cols.(k)).(f) in
  let row = Array.make q I.zero in
  let sent = ref I.zero in
  for k = 0 to q - 1 do
    sent := I.add !sent (term k 0);
    row.(k) <- I.add !sent (term k 1)
  done;
  let position = Array.make (Platform.size s.Scenario.platform) (-1) in
  Array.iteri (fun k i -> position.(i) <- k) s.Scenario.sigma1;
  let returned = ref I.zero in
  for r = Array.length s.Scenario.sigma2 - 1 downto 0 do
    let k = position.(s.Scenario.sigma2.(r)) in
    returned := I.add !returned (term k 2);
    row.(k) <- I.add row.(k) !returned
  done;
  Array.mapi (fun k r -> if Q.sign alpha.(k) > 0 then Q.make (I.sub m r) m else Q.zero) row

(* Repackage an optimal LP point as a [solved] record; [gaps] (sigma1
   order) when the caller has them already, as a certificate does. *)
let package ?gaps:given model (s : Scenario.t) (sol : Simplex.Solver.solution) =
  let q = Array.length s.Scenario.sigma1 in
  let loads = Array.sub sol.Simplex.Solver.point 0 q in
  let gap = match given with Some g -> g | None -> gaps s loads in
  let n = Platform.size s.Scenario.platform in
  let alpha = Array.make n Q.zero and idle = Array.make n Q.zero in
  Array.iteri
    (fun k i ->
      alpha.(i) <- loads.(k);
      if Q.sign loads.(k) > 0 then idle.(i) <- gap.(k))
    s.Scenario.sigma1;
  {
    scenario = s;
    model;
    rho = sol.Simplex.Solver.value;
    alpha;
    idle;
    pivots = sol.Simplex.Solver.pivots;
    basis = sol.Simplex.Solver.basis;
  }

(* The normal form of the scenario's optimal schedules, where
   [Structured_cert.normal_form] proves one: a function of the scenario
   alone, so both pipelines answer with it. *)
let normal_form model s = Structured_cert.normal_form ~one_port:(model = One_port) s

(* The exact simplex, on the scenario's LP [p] (built at most once per
   solve, and only when a rung needs it), answering with the scenario's
   normal form [nf] where there is one and with its own vertex
   elsewhere.  The simplex judges the normal form: both must reach the
   same [rho].  The answer is verified independently before it is
   packaged; answers proved by a basis certificate skip this, since
   each certificate has already checked every row in exact
   arithmetic. *)
let solve_lp ~nf model s p =
  let p = Lazy.force p in
  match Simplex.Solver.solve_result p with
  | Error e -> Error (Errors.of_solver e)
  | Ok sol -> (
    bump exact_pivots sol.Simplex.Solver.pivots;
    let value = sol.Simplex.Solver.value in
    let sol, gaps =
      match nf with
      | Some (nf, gaps) -> ({ nf with Simplex.Solver.pivots = sol.Simplex.Solver.pivots }, Some gaps)
      | None -> (sol, None)
    in
    (* Unreachable unless a solver is wrong; surfaced as a typed error
       rather than an assertion so callers can log it. *)
    if not (Q.equal sol.Simplex.Solver.value value) then
      Errors.invalid "LP certification failed: normal form rho %s, simplex rho %s"
        (Q.to_string sol.Simplex.Solver.value) (Q.to_string value)
    else
      match Simplex.Certify.check p sol with
      | Error msgs -> Errors.invalid "LP certification failed: %s" (String.concat "; " msgs)
      | Ok () -> Ok (package ?gaps model s sol))

(* One candidate basis up the certification ladder: the structured
   FIFO/LIFO certificate (O(p)) first, and [certify_basis]'s restricted
   exact factorization only for a basis whose shape it cannot read.  A
   structured rejection is final: on a chain-shaped basis the generic
   certificate tests the same primal and dual signs. *)
let certify model s p basis =
  match Structured_cert.certify ~one_port:(model = One_port) s ~basis with
  | Structured_cert.Certified { solution; gaps } -> Some (package ~gaps model s solution)
  | Structured_cert.Rejected -> None
  | Structured_cert.Shape ->
    Option.map (package model s) (Simplex.Solver.certify_basis (Lazy.force p) ~basis)

let default_max_float_pivots = 100_000

(* The certification ladder.  A candidate basis (the caller's warm
   start, else the float solver's terminal basis) is accepted only when
   every non-basic reduced cost is strictly negative — proving the
   optimal point unique, and therefore equal to the cold solve's.
   Anything else (defective basis, float stall, alternate optima,
   integer overflow in the certificate) falls back to the exact solve,
   so the result is bit-identical to it by construction.  The caller
   has found no normal form. *)
let ladder model ?warm ~max_float_pivots s p =
  let certified =
    match warm with
    | None -> None
    | Some basis -> (
      match certify model s p basis with
      | Some solved ->
        bump warm_wins 1;
        Some solved
      | None -> None)
  in
  let certified =
    match certified with
    | Some _ -> certified
    | None -> (
      match
        Simplex.Float_solver.solve ~max_pivots:max_float_pivots (Lazy.force p)
      with
      | Simplex.Float_solver.Optimal fsol -> (
        bump float_pivots fsol.Simplex.Float_solver.pivots;
        (* The certificate is deterministic in (problem, basis): when the
           float solver lands on the warm basis that was just rejected,
           re-certifying it can only fail again. *)
        let fbasis = fsol.Simplex.Float_solver.basis in
        if warm = Some fbasis then None
        else
          match certify model s p fbasis with
          | Some solved ->
            bump float_wins 1;
            Some solved
          | None -> None)
      | Simplex.Float_solver.Unbounded | Simplex.Float_solver.Infeasible
      | Simplex.Float_solver.Stalled ->
        None)
  in
  match certified with
  | Some solved -> Ok solved
  | None ->
    bump exact_fallbacks 1;
    solve_lp ~nf:None model s p

(* The certified fast pipeline.  The normal form comes first: it needs
   no LP, and where it exists it is the exact solve's answer too (a
   float win, for the counters).  Elsewhere the ladder decides. *)
let fast_pipeline model ?warm ~max_float_pivots s p =
  match normal_form model s with
  | Some (solution, gaps) ->
    bump float_wins 1;
    Ok (package ~gaps model s solution)
  | None -> ladder model ?warm ~max_float_pivots s p

(* ------------------------------------------------------------------ *)
(* LRU-memoized solving.                                              *)

(* Canonical fingerprint of everything [solve] depends on.  Rationals
   print in lowest terms with positive denominator ([Q.to_string] is
   injective on the normalized representation), so structural equality
   of scenarios coincides with string equality of keys. *)
let scenario_key model (s : Scenario.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (match model with One_port -> "1p|" | Two_port -> "2p|");
  Array.iter
    (fun (wk : Platform.worker) ->
      Buffer.add_string buf wk.Platform.name;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string wk.Platform.c);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string wk.Platform.w);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string wk.Platform.d);
      Buffer.add_char buf ';')
    s.Scenario.platform.Platform.workers;
  Buffer.add_char buf '|';
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',')
    s.Scenario.sigma1;
  Buffer.add_char buf '|';
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',')
    s.Scenario.sigma2;
  Buffer.contents buf

(* Distance between two scenario fingerprints: the number of differing
   worker [name:c:w:d] fields, provided the keys describe the same
   model, the same worker count and the same permutation pair —
   otherwise [None] (incomparable: the LPs have different shapes or
   different row semantics, so one's basis cannot even be installed in
   the other).  Purely syntactic on the canonical key, so it never
   needs the scenarios themselves. *)
let scenario_key_distance a b =
  let split4 k =
    match String.split_on_char '|' k with
    | [ model; workers; s1; s2 ] -> Some (model, workers, s1, s2)
    | _ -> None
  in
  match (split4 a, split4 b) with
  | Some (ma, wa, s1a, s2a), Some (mb, wb, s1b, s2b)
    when ma = mb && s1a = s1b && s2a = s2b ->
    let fa = String.split_on_char ';' wa in
    let fb = String.split_on_char ';' wb in
    if List.length fa <> List.length fb then None
    else
      Some (List.fold_left2 (fun d x y -> if x = y then d else d + 1) 0 fa fb)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Re-solve from a neighbour (same discipline as the pipeline stats
   above: process-wide relaxed atomics, diagnostics only). *)

type resolve_stats = { probes : int; repair_wins : int; repair_pivots : int }

let neighbor_probes = Atomic.make 0
let repair_wins = Atomic.make 0

(* Certifying a basis pivots nothing, so [repair_pivots] is always 0. *)
let resolve_stats () =
  {
    probes = Atomic.get neighbor_probes;
    repair_wins = Atomic.get repair_wins;
    repair_pivots = 0;
  }

let pp_resolve_stats fmt s =
  Format.fprintf fmt "@[<v>neighbor probes:  %d@,neighbor wins:    %d@]"
    s.probes s.repair_wins

(* For a small parameter nudge the old optimal basis is very often still
   optimal, and the certification ladder proves it without pivoting.
   [None] means "no certified answer this way" — never a wrong one. *)
let solve_from_neighbor model s (near : solved) =
  bump neighbor_probes 1;
  match certify model s (lazy (problem model s)) near.basis with
  | None -> None
  | Some solved ->
    bump repair_wins 1;
    Some solved

(* ------------------------------------------------------------------ *)
(* The three modes behind [Solve.solve].                              *)

type mode = [ `Exact | `Fast | `Cached ]

let default_cache_capacity = 4096
let cache : (string, solved) Parallel.Lru.t ref =
  ref (Parallel.Lru.create ~capacity:default_cache_capacity ())

(* [`Cached] memoizes the fast pipeline: both return bit-identical
   records, so a hit is the answer either would give.  [warm] is a hint,
   not an input: it never changes the answer, only the pivot count.
   Single-flight: concurrent misses on one scenario (server workers
   fielding identical requests, enumeration domains meeting on a shared
   prefix) run one solve; the others join it. *)
let run (mode : mode) ?(model = One_port) ?warm
    ?(max_float_pivots = default_max_float_pivots) s =
  let p = lazy (problem model s) in
  match mode with
  | `Exact -> solve_lp ~nf:(normal_form model s) model s p
  | `Fast -> fast_pipeline model ?warm ~max_float_pivots s p
  | `Cached -> (
    match
      Parallel.Lru.find_or_compute !cache (scenario_key model s) (fun () ->
          Errors.get_exn (fast_pipeline model ?warm ~max_float_pivots s p))
    with
    | solved -> Ok solved
    | exception Errors.Error e -> Error e)

let cache_stats () = Parallel.Lru.stats !cache

let reset_cache ?(capacity = default_cache_capacity) () =
  cache := Parallel.Lru.create ~capacity ()

(* ------------------------------------------------------------------ *)

let estimate_rho ?(model = One_port) s =
  match Simplex.Float_solver.solve (problem model s) with
  | Simplex.Float_solver.Optimal sol -> Some sol.Simplex.Float_solver.value
  | Simplex.Float_solver.Unbounded | Simplex.Float_solver.Infeasible
  | Simplex.Float_solver.Stalled ->
    None

let enrolled_workers sol =
  let out = ref [] in
  Array.iteri (fun i a -> if Q.sign a > 0 then out := i :: !out) sol.alpha;
  List.rev !out

type constraint_status = { label : string; slack : Q.t; binding : bool }

let constraint_report sol =
  let s = sol.scenario in
  let platform = s.Scenario.platform in
  let wk i = Platform.get platform i in
  let status label slack = { label; slack; binding = Q.is_zero slack } in
  let deadline i =
    (* the worker's whole chain: wait + receive + compute + gap + return
       block; the gap is the LP idle variable plus the row's own slack,
       i.e. 1 - (chain without idle) *)
    let spos = Scenario.send_position s i in
    let rpos = Scenario.return_position s i in
    let chain = ref Q.zero in
    Array.iter
      (fun j ->
        let w = wk j in
        if Scenario.send_position s j <= spos then
          chain := Q.add !chain (Q.mul sol.alpha.(j) w.Platform.c);
        if Scenario.return_position s j >= rpos then
          chain := Q.add !chain (Q.mul sol.alpha.(j) w.Platform.d);
        if j = i then chain := Q.add !chain (Q.mul sol.alpha.(j) w.Platform.w))
      s.Scenario.sigma1;
    status
      (Printf.sprintf "deadline(%s)" (wk i).Platform.name)
      (Q.sub Q.one !chain)
  in
  let rows = List.map deadline (Array.to_list s.Scenario.sigma1) in
  match sol.model with
  | Two_port -> rows
  | One_port ->
    let used =
      Q.sum_array
        (Array.map
           (fun i ->
             Q.mul sol.alpha.(i)
               (Q.add (wk i).Platform.c (wk i).Platform.d))
           s.Scenario.sigma1)
    in
    rows @ [ status "one-port" (Q.sub Q.one used) ]

let time_for_load sol ~load =
  if Q.sign sol.rho <= 0 then invalid_arg "Lp_model.time_for_load: zero throughput";
  Q.div load sol.rho

let pp fmt sol =
  Format.fprintf fmt "@[<v>%s model, rho = %s (~%.6g)@,%a@,loads:@,"
    (match sol.model with One_port -> "one-port" | Two_port -> "two-port")
    (Q.to_string sol.rho) (Q.to_float sol.rho) Scenario.pp sol.scenario;
  Array.iteri
    (fun i a ->
      if Q.sign a > 0 then
        Format.fprintf fmt "  %-6s alpha=%-12s idle=%s@,"
          (Platform.get sol.scenario.Scenario.platform i).Platform.name
          (Q.to_string a)
          (Q.to_string sol.idle.(i)))
    sol.alpha;
  Format.fprintf fmt "@]"
