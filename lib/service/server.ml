module Q = Numeric.Rational
module P = Protocol
module E = Dls.Errors

type address = Endpoint.address = Unix_socket of string | Tcp of string * int

type config = {
  address : address;
  jobs : int;
  queue_capacity : int;
  timeout : float option;
  worker_delay : float;
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
    worker_delay = 0.;
    store = None;
    journal_max_bytes = None;
    brownout = false;
  }

(* Warm response cache (tier 1), active when a store is configured.
   Holds response entries keyed by canonical request key; sized well
   past the admission bound. *)
let response_cache_capacity = 4096

type job = {
  request : P.request;
  key : string;
  admitted : float;
  jm : Mutex.t;
  jc : Condition.t;
  mutable joined : float list;
      (* admission times of the duplicates waiting on this job; written
         under the server's [flight] lock *)
  mutable reply : string option;  (* the rendered reply line *)
}

type t = {
  cfg : config;
  queue : job Queue.t;
  (* Single flight: each key admitted and not yet answered, with its
     job.  A duplicate joins that job instead of taking a queue slot;
     the evaluator unlinks the key under the same lock before it
     delivers, so no joiner can be lost. *)
  flight : Mutex.t;
  in_flight : (string, job) Hashtbl.t;
  (* The evaluation turn at [jobs = 1], where the connection threads
     evaluate in turn instead of handing jobs to an evaluator (see
     [take_turn]); unused with more jobs. *)
  turn : Mutex.t;
  metrics : Metrics.t;
  cache : (string, string) Parallel.Lru.t option;
      (* tier-1 warm reply lines; [Some] iff [store] is *)
  store : Store.t option;  (* tier-2 durable solution store *)
  (* Brownout hysteresis: consecutive evaluations that ended with the
     queue above 3/4 (resp. at or below 1/4) of capacity.  Written by
     the evaluator loops; a lost update under contention only delays
     the flip by one evaluation. *)
  high_streak : int Atomic.t;
  low_streak : int Atomic.t;
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
   loads), all the while holding an evaluator, since the timeout is
   cooperative.  The daemon refuses anything larger than 45;
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

let eval_request ~brownout = function
  | P.Solve r -> eval_solve ~brownout r
  | P.Solve_multi r -> eval_multi r
  | P.Simulate r -> eval_simulate r
  | P.Check p -> eval_check p
  (* answered inline by the connection thread; kept total for safety *)
  | P.Stats | P.Health | P.Hello ->
    P.Failed (E.Invalid_scenario "stats/health/hello are not queueable")

(* Total: every exception becomes a response, so an evaluator loop
   never dies on a bad request. *)
let eval_job t job =
  let brownout = Metrics.brownout_active t.metrics in
  let t0 = Parallel.Clock.now () in
  let resp =
    match
      Parallel.Pool.timed ?timeout:t.cfg.timeout
        (fun () ->
          if t.cfg.worker_delay > 0. then Unix.sleepf t.cfg.worker_delay;
          eval_request ~brownout job.request)
        ()
    with
    | resp -> resp
    | exception Parallel.Pool.Task_timeout { budget; _ } ->
      P.Timed_out { budget }
    | exception E.Error e -> P.Failed e
    | exception exn -> P.Failed (E.Invalid_scenario (Printexc.to_string exn))
  in
  (* Feed the admission predictor with the evaluation time (including
     [worker_delay], which keeps overload experiments deterministic). *)
  Metrics.observe_service t.metrics (Parallel.Clock.elapsed_s ~since:t0);
  resp

(* ------------------------------------------------------------------ *)
(* Evaluator loops                                                     *)

let count_response t resp ~admitted =
  Metrics.incr t.metrics
    (match resp with
    | _ when P.is_ok resp -> Served
    | P.Timed_out _ -> Timed_out
    (* Sheds are answered at admission, never delivered from an
       evaluator; counted defensively should that ever change. *)
    | P.Shed _ -> Shed
    | _ -> Failed);
  Metrics.observe_latency t.metrics (Parallel.Clock.elapsed_s ~since:admitted);
  Metrics.decr t.metrics Inflight

(* Brownout hysteresis: three consecutive evaluations ending with the
   queue above 3/4 of capacity switch the forced-fast mode on; three at
   or below 1/4 switch it off.  In between, both streaks reset. *)
let brownout_step t =
  let depth = Queue.length t.queue in
  let cap = Queue.capacity t.queue in
  if 4 * depth >= 3 * cap then begin
    Atomic.set t.low_streak 0;
    if Atomic.fetch_and_add t.high_streak 1 + 1 >= 3 then
      Metrics.set_brownout t.metrics true
  end
  else if 4 * depth <= cap then begin
    Atomic.set t.high_streak 0;
    if Atomic.fetch_and_add t.low_streak 1 + 1 >= 3 then
      Metrics.set_brownout t.metrics false
  end
  else begin
    Atomic.set t.high_streak 0;
    Atomic.set t.low_streak 0
  end

(* One evaluation of an admitted job, shared by the evaluator loops and,
   at [jobs = 1], by the connection threads that take the turn:
   evaluate, feed both tiers, unlink the key from single flight, deliver
   the rendered reply to the job and its joiners, then one brownout
   step. *)
let step t job =
  let resp = eval_job t job in
  let line = P.response_to_string resp in
  (* A success feeds both tiers before delivery, so a crash right after
     the reply is visible can still re-read the record, and a duplicate
     admitted after the unlink below hits tier 1. *)
  (match (t.cache, t.store) with
  | Some cache, Some store when P.is_ok resp ->
    if not (Parallel.Lru.mem cache job.key) then begin
      Parallel.Lru.add cache job.key line;
      (* The store skips a key it already holds, so a record another
         shard already published is not re-written. *)
      ignore (Store.add store ~key:job.key ~value:line)
    end;
    (* Byte budget: past it, rewrite the store down to the keys the
       tier-1 cache still holds.  Evaluators race here at worst into
       back-to-back compactions; the store serialises them and counts
       each. *)
    (match t.cfg.journal_max_bytes with
    | Some max_bytes when Store.size_bytes store > max_bytes ->
      ignore (Store.compact store ~live:(Parallel.Lru.mem cache) ())
    | _ -> ())
  | _ -> ());
  Mutex.lock t.flight;
  Hashtbl.remove t.in_flight job.key;
  let answered = job.admitted :: job.joined in
  Mutex.unlock t.flight;
  List.iter (fun admitted -> count_response t resp ~admitted) answered;
  Metrics.note_evaluation t.metrics ~answered:(List.length answered);
  Mutex.lock job.jm;
  job.reply <- Some line;
  Condition.broadcast job.jc;
  Mutex.unlock job.jm;
  if t.cfg.brownout then brownout_step t

(* One evaluator loop: take the next admitted job as soon as the last
   one is answered, until the queue is closed and drained. *)
let rec evaluate t =
  match Queue.pop t.queue with
  | None -> ()
  | Some job ->
    step t job;
    evaluate t

(* With [jobs = 1] there is no evaluator: the connection thread that
   queued a job takes the turn, pops the queue head (its own job or one
   queued before it) and runs [step] on it, so an uncontended request
   is evaluated where it was read, with no handoff to another thread
   and back.  Every pusher pops exactly once, after its push and under
   the turn, so the pop always finds a job, and evaluations stay one at
   a time and in admission order. *)
let take_turn t =
  Mutex.protect t.turn (fun () -> Option.iter (step t) (Queue.pop t.queue))

(* With more jobs, one evaluator loop per participant of a temporary
   pool that lives as long as the loops do; returns the join.  The
   pool's caller is a domain of its own: a loop busy on the main domain
   would hold the runtime lock that the connection threads retake after
   every read and write, so a fast request evaluated on another domain
   would still wait up to a 50 ms tick per handoff (its reply came
   0.24-0.46 s late behind a 0.7 s solve).  With [jobs = 1] nothing is
   spawned ([take_turn]). *)
let spawn_evaluators t =
  let jobs = t.cfg.jobs in
  if jobs = 1 then ignore
  else
    let d =
      Domain.spawn (fun () ->
          ignore
            (Parallel.Pool.run ~jobs (fun () -> evaluate t) (Array.make jobs ())))
    in
    fun () -> Domain.join d

(* ------------------------------------------------------------------ *)
(* Connection threads                                                  *)

let snapshot t =
  Metrics.snapshot ?store:(Option.map Store.stats t.store) t.metrics
    ~queue_depth:(Queue.length t.queue)

let health_of t : P.health_rep =
  let draining = Endpoint.stopping t.endpoint in
  let degraded = Metrics.brownout_active t.metrics in
  let s = snapshot t in
  {
    healthy = not (draining || degraded);
    draining;
    h_mode =
      (if draining then P.Mode_draining
       else if degraded then P.Mode_degraded
       else P.Mode_healthy);
    h_uptime_s = s.P.uptime_s;
    h_queue_depth = s.P.queue_depth;
    h_capacity = Queue.capacity t.queue;
    h_workers = t.cfg.jobs;
  }

let stats t = snapshot t
let health = health_of

let wait_reply job =
  Mutex.lock job.jm;
  while job.reply = None do
    Condition.wait job.jc job.jm
  done;
  let r = Option.get job.reply in
  Mutex.unlock job.jm;
  r

(* Deadline-aware admission: when the per-request budget cannot be met
   at the current depth (predicted wait = service EWMA x queued-ahead /
   evaluators), shedding now is strictly kinder than queueing work that
   is doomed to [timeout] — the client learns immediately and the queue
   stays available for requests that can still make it. *)
let doomed t =
  match t.cfg.timeout with
  | None -> None
  | Some budget ->
    let ewma = Metrics.service_ewma t.metrics in
    if ewma <= 0. then None
    else
      let depth = Queue.length t.queue in
      let wait = ewma *. float_of_int (depth + 1) /. float_of_int t.cfg.jobs in
      if wait > budget then Some (wait, budget) else None

(* [`Queued job] to evaluate and wait on, [`Joined job] to wait on, or
   [`Answered resp] to answer at once.  A duplicate of a job in flight
   joins it: no queue slot, no shed check, since it adds no work.
   Counters move under the [flight] lock, so [step], which unlinks the
   key under it too, delivers only after they have. *)
let admit t request key =
  let admitted = Parallel.Clock.now () in
  Mutex.protect t.flight (fun () ->
      match Hashtbl.find_opt t.in_flight key with
      | Some job ->
        job.joined <- admitted :: job.joined;
        Metrics.incr t.metrics Accepted;
        Metrics.incr t.metrics Collapsed;
        Metrics.incr t.metrics Inflight;
        `Joined job
      | None -> (
        match doomed t with
        | Some (wait, budget) ->
          Metrics.incr t.metrics Accepted;
          Metrics.incr t.metrics Shed;
          `Answered (P.Shed { wait; budget })
        | None -> (
          let job =
            {
              request;
              key;
              admitted;
              jm = Mutex.create ();
              jc = Condition.create ();
              joined = [];
              reply = None;
            }
          in
          match Queue.try_push t.queue job with
          | Queue.Enqueued ->
            Hashtbl.replace t.in_flight key job;
            Metrics.incr t.metrics Accepted;
            Metrics.incr t.metrics Inflight;
            `Queued job
          | Queue.Overloaded ->
            Metrics.incr t.metrics Rejected;
            `Answered
              (P.Overloaded
                 { depth = Queue.length t.queue; capacity = Queue.capacity t.queue })
          | Queue.Closed ->
            Metrics.incr t.metrics Rejected;
            `Answered (P.Failed (E.Io_error "server is draining")))))

(* The reply line to write for [line], rendered once: an evaluated
   reply comes rendered from [step], and a cache hit is the line it
   holds. *)
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
           | _ -> P.Ok_health (health_of t)))
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
      | None ->
        Some
          (match admit t request key with
          | `Queued job ->
            if t.cfg.jobs = 1 then take_turn t;
            wait_reply job
          | `Joined job -> wait_reply job
          | `Answered resp -> P.response_to_string resp))

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
          queue = Queue.create ~capacity:cfg.queue_capacity;
          flight = Mutex.create ();
          turn = Mutex.create ();
          in_flight = Hashtbl.create 64;
          metrics;
          cache;
          store;
          high_streak = Atomic.make 0;
          low_streak = Atomic.make 0;
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
         answered: by the evaluators before their pops return None (the
         pool shuts down as they end), or at [jobs = 1] by the
         connection threads that queued it, which the endpoint joins
         next. *)
      Queue.close t.queue;
      t.join_evaluators ());
  Option.iter Store.close t.store
