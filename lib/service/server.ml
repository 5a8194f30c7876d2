module Q = Numeric.Rational
module P = Protocol
module E = Dls.Errors

type address = Endpoint.address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  jobs : int;
  queue_capacity : int;
  timeout : float option;
  store : string option;
  journal_max_bytes : int option;
  brownout : bool;
}

let default_config address =
  {
    address;
    jobs = Parallel.Pool.default_jobs ();
    queue_capacity = 64;
    timeout = None;
    store = None;
    journal_max_bytes = None;
    brownout = false;
  }

(* Warm response cache (tier 1), active when a store is configured.
   Holds response entries keyed by canonical request key; sized well
   past the admission bound. *)
let response_cache_capacity = 4096

type t = {
  cfg : config;
  (* The one lock of the serving path: it guards the admission core,
     the reply slots of its jobs, and [changed], which is broadcast
     whenever a job is queued for an evaluator, a job is answered, or
     the drain starts. *)
  m : Mutex.t;
  changed : Condition.t;
  core : Admission.t;
  metrics : Metrics.t;
  cache : (string, string) Parallel.Lru.t option;
      (* tier-1 warm reply lines; [Some] iff [store] is *)
  store : Store.t option;  (* tier-2 durable solution store *)
  endpoint : Endpoint.t;
  mutable join_evaluators : unit -> unit;  (* see [spawn_evaluators] *)
}

(* ------------------------------------------------------------------ *)
(* Request evaluation (runs in [step])                                 *)

let scenario order p =
  match order with
  | P.Fifo -> Dls.Scenario.fifo_exn p (Dls.Fifo.order p)
  | P.Lifo -> Dls.Scenario.lifo_exn p (Dls.Lifo.order p)

(* [simulate] and [check] need the one-port optimum of the Theorem 1
   order ([Fifo.optimal] / [Lifo.optimal]).  They take it through the
   same [`Cached] front door as [solve]: the answer is bit-identical to
   the exact solve, and it shares the LP cache with solves of the same
   platform. *)
let optimal order p = Dls.Solve.solve_exn ~mode:`Cached (scenario order p)

let eval_solve ~brownout (r : P.solve_req) =
  let scenario = scenario r.P.s_order r.P.s_platform in
  (* Brownout downgrades `Exact to the certified fast pipeline.  The
     response stays bit-identical: the fast path certifies its answer
     against the exact optimum and falls back on any mismatch, so the
     downgrade trades worst-case latency, never correctness. *)
  let mode = if r.P.s_fast || brownout then `Cached else `Exact in
  let sol = Dls.Solve.solve_exn ~mode ~model:r.P.s_model scenario in
  P.Ok_solve
    {
      rho = sol.Dls.Lp_model.rho;
      sigma1 = Array.copy scenario.Dls.Scenario.sigma1;
      alpha = sol.Dls.Lp_model.alpha;
      idle = sol.Dls.Lp_model.idle;
      makespan =
        Option.map (fun load -> Dls.Lp_model.time_for_load sol ~load) r.P.s_load;
    }

(* A batch LP has [4 · loads · p + 1] variables and only the exact Bland
   simplex solves it, at a cost that climbs steeply with that size
   (solve_batch_best on the fraction-free tableau, two draws per size,
   2-vCPU VM): at most 0.19 s up to 45 variables (p = 11, one load),
   0.2-0.6 s at 49, 0.5-3.9 s at 61-65 and 1.3-3.1 s at 89 (p = 11, two
   loads), all the while holding an evaluator, since the budget
   verdict comes only once the evaluation returns.  The daemon refuses anything larger than 45;
   [dls solve-multi] stays uncapped. *)
let max_batch_lp_vars = 45

let batch_lp_vars (r : P.multi_req) =
  (4 * Dls.Workload.size r.P.u_workload * Dls.Platform.size r.P.u_platform) + 1

let eval_multi (r : P.multi_req) =
  let p = r.P.u_platform in
  let w = r.P.u_workload in
  match r.P.u_mode with
  | P.Batch when batch_lp_vars r > max_batch_lp_vars ->
    P.Failed
      (E.Invalid_scenario
         (Printf.sprintf
            "batch LP of %d variables (4 x loads x workers + 1) exceeds the \
             daemon's %d; solve it with dls solve-multi"
            (batch_lp_vars r) max_batch_lp_vars))
  | P.Steady ->
    let s = E.get_exn (Dls.Steady_state.solve p w) in
    P.Ok_multi
      {
        mm_mode = P.Steady;
        mm_value = s.Dls.Steady_state.period;
        mm_throughput = s.Dls.Steady_state.throughput;
        mm_depth = None;
        mm_alloc = Array.map Array.copy s.Dls.Steady_state.alloc;
      }
  | P.Batch ->
    let b =
      E.get_exn
        (match r.P.u_depth with
        | Some depth -> Dls.Steady_state.solve_batch ~depth p w
        | None -> Dls.Steady_state.solve_batch_best p w)
    in
    let makespan = b.Dls.Steady_state.makespan in
    P.Ok_multi
      {
        mm_mode = P.Batch;
        mm_value = makespan;
        mm_throughput = Q.div (Dls.Workload.total_size w) makespan;
        mm_depth = Some b.Dls.Steady_state.depth;
        mm_alloc = Array.map Array.copy b.Dls.Steady_state.chunks;
      }

let eval_simulate (r : P.simulate_req) =
  let p = r.P.m_platform in
  let sol = optimal r.P.m_order p in
  let load = Q.of_int r.P.m_items in
  let lp_makespan = Q.to_float (Dls.Lp_model.time_for_load sol ~load) in
  match r.P.m_faults with
  | None ->
    let plan = Sim.Star.plan_of_rounded sol ~total:r.P.m_items in
    let trace = Sim.Star.execute p plan in
    P.Ok_simulate
      {
        sim_makespan = trace.Sim.Trace.makespan;
        lp_makespan;
        sim_valid = Sim.Trace.is_valid trace;
        achieved = None;
        achieved_ratio = None;
        replanned = None;
      }
  | Some plan ->
    E.get_exn (Dls.Faults.validate_for p plan);
    let policies =
      match r.P.m_replan with
      | P.Replan_none -> []
      | P.Replan_auto -> Dls.Replan.default_policies
      | P.Replan_policy pol -> [ pol ]
    in
    let outcome = Dls.Replan.respond_exn ~policies plan sol ~load in
    let original = Dls.Schedule.for_load sol ~load in
    let trace =
      E.get_exn
        (Sim.Faults.execute_decision p plan ~original
           ~decision:outcome.Dls.Replan.decision)
    in
    (* The completed load is the exact re-planner's: the LP schedule
       meets its deadline exactly, so the float trace would lose whole
       returns to one ulp of rounding. *)
    let achieved = outcome.Dls.Replan.achieved.Dls.Replan.done_by_deadline in
    P.Ok_simulate
      {
        sim_makespan = trace.Sim.Trace.makespan;
        lp_makespan;
        sim_valid = Sim.Trace.is_valid trace;
        achieved = Some (Q.to_float achieved);
        achieved_ratio = Some (Q.to_float (Q.div achieved load));
        replanned =
          Option.map Dls.Replan.policy_to_string outcome.Dls.Replan.policy_used;
      }

let eval_check p =
  let count sol acc =
    let schedule =
      match
        Check.Validator.errors_of_result p (Check.Validator.validate_solved sol)
      with
      | Ok () -> 0
      | Error msgs -> List.length msgs
    in
    let certificate =
      match Check.Certificate.check sol with
      | Ok () -> 0
      | Error msgs -> List.length msgs
    in
    acc + schedule + certificate
  in
  let violations =
    count (optimal P.Fifo p) 0 |> count (optimal P.Lifo p)
  in
  P.Ok_check { check_ok = violations = 0; violations }

let evaluate ~brownout = function
  | P.Solve r -> eval_solve ~brownout r
  | P.Solve_multi r -> eval_multi r
  | P.Simulate r -> eval_simulate r
  | P.Check p -> eval_check p
  (* answered inline by the connection thread; kept total for safety *)
  | P.Stats | P.Health | P.Hello ->
    P.Failed (E.Invalid_scenario "stats/health/hello are not queueable")


(* ------------------------------------------------------------------ *)
(* Evaluation: the shell around [Admission.next] / [Admission.finish]  *)

(* One evaluation of the job [Admission.next] handed out: evaluate it
   with [t.m] released, then, under it again, take the core's verdict,
   render the reply once, feed both tiers, and hand the line to the job
   and every duplicate that joined it.  Called and returns with [t.m]
   held.  Total: an exception becomes a failed reply, so no evaluator
   loop or connection thread dies on a bad request.  A success feeds
   both tiers before the waiters wake, so a crash right after the reply
   is visible can still re-read the record. *)
let evaluate_job t (job : Admission.job) =
  let brownout = Admission.browned_out t.core in
  Mutex.unlock t.m;
  let t0 = Parallel.Clock.now () in
  let outcome =
    match evaluate ~brownout job.request with
    | resp -> Ok resp
    | exception E.Error e -> Error (P.Failed e)
    | exception exn -> Error (P.Failed (E.Invalid_scenario (Printexc.to_string exn)))
  in
  let now = Parallel.Clock.now () in
  Mutex.lock t.m;
  let resp, _ = Admission.finish t.core job ~now ~elapsed:(now -. t0) outcome in
  let line = P.response_to_string resp in
  (match (t.cache, t.store) with
  | Some cache, Some store when P.is_ok resp ->
    if not (Parallel.Lru.mem cache job.key) then begin
      Parallel.Lru.add cache job.key line;
      (* The store skips a key it already holds, so a record another
         shard already published is not re-written. *)
      ignore (Store.add store ~key:job.key ~value:line)
    end;
    (* Byte budget: past it, rewrite the store down to the keys the
       tier-1 cache still holds. *)
    (match t.cfg.journal_max_bytes with
    | Some max_bytes when Store.size_bytes store > max_bytes ->
      ignore (Store.compact store ~live:(Parallel.Lru.mem cache) ())
    | _ -> ())
  | _ -> ());
  job.reply <- Some line;
  Condition.broadcast t.changed

(* One evaluator loop (jobs >= 2): take the next job whenever a slot
   is free, until the drain has handed out the last one. *)
let evaluator t () =
  Mutex.protect t.m (fun () ->
      let rec loop () =
        match Admission.next t.core with
        | Some job ->
          evaluate_job t job;
          loop ()
        | None when Admission.drained t.core -> ()
        | None ->
          Condition.wait t.changed t.m;
          loop ()
      in
      loop ())

(* With more jobs, one evaluator loop per participant of a temporary
   pool that lives as long as the loops do; returns the join.  The
   pool's caller is a domain of its own: a loop busy on the main domain
   would hold the runtime lock that the connection threads retake after
   every read and write, so a fast request evaluated on another domain
   would still wait up to a 50 ms tick per handoff (its reply came
   0.24-0.46 s late behind a 0.7 s solve).  With [jobs = 1] nothing is
   spawned: the connection threads evaluate ([await]). *)
let spawn_evaluators t =
  let jobs = t.cfg.jobs in
  if jobs = 1 then ignore
  else
    let d =
      Domain.spawn (fun () ->
          ignore (Parallel.Pool.run ~jobs (evaluator t) (Array.make jobs ())))
    in
    fun () -> Domain.join d

(* Wait, under [t.m], until [job] is answered.  At [jobs = 1] the
   waiting connection thread is the evaluator (caller-runs): whenever
   the slot is free it evaluates the queue head, its own job or one
   admitted before it, so an uncontended request is evaluated on the
   thread that read it, in two lock acquisitions (admit, answer), and
   evaluations stay one at a time and in admission order. *)
let await t (job : Admission.job) =
  let rec loop () =
    match job.reply with
    | Some line -> line
    | None ->
      (match if t.cfg.jobs = 1 then Admission.next t.core else None with
      | Some head -> evaluate_job t head
      | None -> Condition.wait t.changed t.m);
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection threads                                                  *)

let snapshot t ~queue_depth =
  Metrics.snapshot ?store:(Option.map Store.stats t.store) t.metrics ~queue_depth

let stats t =
  snapshot t ~queue_depth:(Mutex.protect t.m (fun () -> Admission.depth t.core))

let health t : P.health_rep =
  let draining = Endpoint.stopping t.endpoint in
  let queue_depth, degraded =
    Mutex.protect t.m (fun () ->
        (Admission.depth t.core, Admission.browned_out t.core))
  in
  let s = snapshot t ~queue_depth in
  {
    healthy = not (draining || degraded);
    draining;
    h_mode =
      (if draining then P.Mode_draining
       else if degraded then P.Mode_degraded
       else P.Mode_healthy);
    h_uptime_s = s.P.uptime_s;
    h_queue_depth = queue_depth;
    h_capacity = t.cfg.queue_capacity;
    h_workers = t.cfg.jobs;
  }

(* Admit [request] to the core and wait for its reply line.  A new job
   wakes the evaluators at [jobs >= 2]; at [jobs = 1] the admitting
   thread evaluates it itself ([await]). *)
let admit t request key =
  let now = Parallel.Clock.now () in
  Mutex.protect t.m (fun () ->
      match Admission.admit t.core ~now key request with
      | Queued job ->
        if t.cfg.jobs > 1 then Condition.broadcast t.changed;
        await t job
      | Joined job -> await t job
      | Answered resp -> P.response_to_string resp)

(* The reply line to write for [line], rendered once: an evaluated
   reply comes rendered from [evaluate_job], and a cache hit is the
   line it holds. *)
let handle_line t line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then None
  else
    match P.parse_request_v ~line:1 trimmed with
    | `Malformed e ->
      Metrics.incr t.metrics Malformed;
      Some (P.response_to_string (P.Failed e))
    | `Unknown_verb verb ->
      (* Version skew is not an error: tell the client which verb we
         refused and which protocol we speak, and keep the session up. *)
      Metrics.incr t.metrics Malformed;
      Some
        (P.response_to_string (P.Unsupported { verb; server_version = P.version }))
    | `Request ((P.Stats | P.Health | P.Hello) as r) ->
      (* Control-plane requests bypass the queue: they must answer even
         when the data plane is saturated — that is their whole point. *)
      Some
        (P.response_to_string
           (match r with
           | P.Stats -> P.Ok_stats (stats t)
           | P.Hello ->
             P.Ok_hello
               {
                 P.server_version = P.version;
                 server_min_version = P.min_version;
                 server_verbs = P.verbs;
               }
           | _ -> P.Ok_health (health t)))
    | `Request request -> (
      let key = P.request_key request in
      (* Tier 1, the warm response cache: a hit answers at admission
         without touching the queue — this is what makes a freshly
         restarted daemon useful within milliseconds. *)
      match
        Option.bind t.cache (fun cache -> Parallel.Lru.find cache key)
      with
      | Some reply ->
        Metrics.incr t.metrics Accepted;
        Metrics.incr t.metrics Warm_hits;
        Metrics.incr t.metrics Served;
        Metrics.observe_latency t.metrics 0.;
        Some reply
      | None ->
      (* Tier 2, the shared solution store: an LRU miss consults the
         fleet's persistent store before solving — a solution computed
         by any shard, in any past life, is a disk read here.  A record
         that parses as a success is served as stored, since the store
         holds rendered reply lines; hits are promoted back into
         tier 1. *)
      match
        match t.store with
        | None -> None
        | Some store -> (
          match Store.find store key with
          | None ->
            Metrics.incr t.metrics Store_misses;
            None
          | Some value -> (
            match P.parse_response value with
            | Ok resp when P.is_ok resp -> Some value
            | Ok _ | Error _ -> None))
      with
      | Some reply ->
        Metrics.incr t.metrics Accepted;
        Metrics.incr t.metrics Store_hits;
        Metrics.incr t.metrics Served;
        Metrics.observe_latency t.metrics 0.;
        Option.iter (fun cache -> Parallel.Lru.add cache key reply) t.cache;
        Some reply
      | None -> Some (admit t request key))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start cfg =
  if cfg.jobs < 1 || cfg.queue_capacity < 1 then
    E.invalid "Server.start: jobs and queue_capacity must be >= 1"
  else if cfg.journal_max_bytes <> None && cfg.store = None then
    E.invalid "Server.start: journal_max_bytes needs a store"
  else if (match cfg.journal_max_bytes with Some n -> n < 1 | None -> false)
  then E.invalid "Server.start: journal_max_bytes must be >= 1"
  else
    match Endpoint.listen cfg.address with
    | Error _ as e -> e
    | Ok endpoint -> (
      let metrics = Metrics.create () in
      (* Open the store before serving: a bad path must fail the boot.
         Nothing is read up front; tier-1 misses probe it lazily. *)
      let store_setup =
        match cfg.store with
        | None -> Ok None
        | Some path -> Result.map Option.some (Store.open_ path)
      in
      match store_setup with
      | Error e ->
        Endpoint.stop endpoint;
        Error e
      | Ok store ->
      (* The tier-1 cache exists whenever the store does.  Every
         capacity eviction is then a demotion: the record still lives
         in the store, and the counter says how much of the working set
         no longer fits hot. *)
      let cache =
        Option.map
          (fun _ ->
            Parallel.Lru.create ~capacity:response_cache_capacity
              ~on_evict:(fun _ _ -> Metrics.incr metrics Store_demoted)
              ())
          store
      in
      let t =
        {
          cfg;
          m = Mutex.create ();
          changed = Condition.create ();
          core =
            Admission.create ~jobs:cfg.jobs ~capacity:cfg.queue_capacity
              ?timeout:cfg.timeout ~brownout:cfg.brownout metrics;
          metrics;
          cache;
          store;
          endpoint;
          join_evaluators = ignore;
        }
      in
      t.join_evaluators <- spawn_evaluators t;
      Endpoint.serve_lines endpoint ~handle:(handle_line t) ~hangup:(fun () ->
          Metrics.incr metrics Hangups);
      Ok t)

let address t = Endpoint.address t.endpoint

(* The endpoint stops accepting, then runs the drain below, then wakes
   the connection threads (blocked readers see EOF) and waits them out;
   the store closes last, after every reader is gone. *)
let stop t =
  Endpoint.stop t.endpoint ~drain:(fun () ->
      (* Close admission; everything already admitted is still
         answered: by the evaluators before they see the core drained
         (the pool shuts down as they end), or at [jobs = 1] by the
         connection threads waiting on it, which the endpoint joins
         next. *)
      Mutex.protect t.m (fun () ->
          Admission.close t.core;
          Condition.broadcast t.changed);
      t.join_evaluators ());
  Option.iter Store.close t.store
