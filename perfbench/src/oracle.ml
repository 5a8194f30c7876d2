(* The exact oracle: what the daemon must answer, computed in-process
   with the exact rational solver and rendered by the protocol's own
   renderer, so a correct daemon's reply is equal to it byte for byte.

   It re-derives each verb's answer from the library's exact entry
   points ([Dls.Solve.solve ~mode:`Exact], [Fifo/Lifo.optimal],
   [Steady_state], the validator and certificate) instead of calling
   into the server, so a fault in the server's fast, cached, repaired
   or stored paths shows up as a mismatch. *)

module Q = Numeric.Rational
module P = Service.Protocol
module E = Dls.Errors

let scenario (r : P.solve_req) =
  let p = r.P.s_platform in
  match r.P.s_order with
  | P.Fifo -> Dls.Scenario.fifo_exn p (Dls.Fifo.order p)
  | P.Lifo -> Dls.Scenario.lifo_exn p (Dls.Lifo.order p)

let solve_reply (r : P.solve_req) (sol : Dls.Lp_model.solved) =
  P.Ok_solve
    {
      rho = sol.Dls.Lp_model.rho;
      sigma1 = Array.copy sol.Dls.Lp_model.scenario.Dls.Scenario.sigma1;
      alpha = sol.Dls.Lp_model.alpha;
      idle = sol.Dls.Lp_model.idle;
      makespan =
        Option.map (fun load -> Dls.Lp_model.time_for_load sol ~load) r.P.s_load;
    }

let solve (r : P.solve_req) =
  solve_reply r (Dls.Solve.solve_exn ~mode:`Exact ~model:r.P.s_model (scenario r))

let multi (r : P.multi_req) =
  let p = r.P.u_platform and w = r.P.u_workload in
  Spans.span "multi.solve" @@ fun () ->
  match r.P.u_mode with
  | P.Steady ->
    let s = E.get_exn (Dls.Steady_state.solve p w) in
    P.Ok_multi
      {
        mm_mode = P.Steady;
        mm_value = s.Dls.Steady_state.period;
        mm_throughput = s.Dls.Steady_state.throughput;
        mm_depth = None;
        mm_alloc = s.Dls.Steady_state.alloc;
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
        mm_alloc = b.Dls.Steady_state.chunks;
      }

let optimal order p =
  match order with P.Fifo -> Dls.Fifo.optimal p | P.Lifo -> Dls.Lifo.optimal p

(* Fault-free simulation only: the workloads send no fault plans. *)
let simulate (r : P.simulate_req) =
  assert (r.P.m_faults = None);
  let p = r.P.m_platform in
  let sol = Spans.span "sim.optimal" (fun () -> optimal r.P.m_order p) in
  let load = Q.of_int r.P.m_items in
  let plan = Sim.Star.plan_of_rounded sol ~total:r.P.m_items in
  let trace = Spans.span "sim.execute" (fun () -> Sim.Star.execute p plan) in
  P.Ok_simulate
    {
      sim_makespan = trace.Sim.Trace.makespan;
      lp_makespan = Q.to_float (Dls.Lp_model.time_for_load sol ~load);
      sim_valid = Sim.Trace.is_valid trace;
      achieved = None;
      achieved_ratio = None;
      replanned = None;
    }

let violations p sol =
  let n = function Ok () -> 0 | Error msgs -> List.length msgs in
  n (Check.Validator.errors_of_result p (Check.Validator.validate_solved sol))
  + n (Check.Certificate.check sol)

let check p =
  let v order =
    let sol = Spans.span "check.optimal" (fun () -> optimal order p) in
    Spans.span "check.validate" (fun () -> violations p sol)
  in
  let v = v P.Fifo + v P.Lifo in
  P.Ok_check { check_ok = v = 0; violations = v }

let eval = function
  | P.Solve r -> solve r
  | P.Solve_multi r -> multi r
  | P.Simulate r -> simulate r
  | P.Check p -> check p
  | P.Stats | P.Health | P.Hello -> invalid_arg "Oracle.eval: control verb"

(* The expected reply line for a request line, parsed back first so the
   oracle sees exactly what the daemon sees (positional worker names). *)
let expected line =
  match P.parse_request ~line:1 line with
  | Error e -> Error (E.to_string e)
  | Ok r -> (
    match eval r with
    | resp -> Ok (P.response_to_string resp)
    | exception E.Error e -> Error (E.to_string e))

(* The distinct lines, in order of first appearance. *)
let distinct lines =
  let seen = Hashtbl.create (Array.length lines) in
  Array.of_list
    (List.rev
       (Array.fold_left
          (fun acc l ->
            if Hashtbl.mem seen l then acc
            else begin
              Hashtbl.add seen l ();
              l :: acc
            end)
          [] lines))

(* [table ~jobs lines] maps every distinct line to its expected reply,
   evaluated on [jobs] domains. *)
let table ~jobs lines =
  let distinct = distinct lines in
  let answers = Parallel.Pool.run ~jobs expected distinct in
  let t = Hashtbl.create (Array.length distinct) in
  Array.iteri (fun i l -> Hashtbl.replace t l answers.(i)) distinct;
  t
