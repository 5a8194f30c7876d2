module Q = Numeric.Rational
open Q.Infix

type solved = {
  platform : Platform.t;
  workload : Workload.t;
  period : Q.t;
  alloc : Q.t array array;
  port_time : Q.t;
  work_time : Q.t array;
  throughput : Q.t;
  pivots : int;
}

let certify problem sol ~what =
  match Simplex.Certify.check problem sol with
  | Ok () -> Ok ()
  | Error msgs ->
    Error
      (Errors.Invalid_scenario
         (Printf.sprintf "%s: certification failed: %s" what
            (String.concat "; " msgs)))

(* Variable layout: a(k,i) at k*p + i, then T at K*p. *)
let problem platform workload =
  let p = Platform.size platform in
  let kk = Workload.size workload in
  let nvars = (kk * p) + 1 in
  let a_var k i = (k * p) + i in
  let t_var = kk * p in
  let row () = Array.make nvars Q.zero in
  let constraints = ref [] in
  let add coeffs relation rhs =
    constraints := Simplex.Problem.constr coeffs relation rhs :: !constraints
  in
  (* every load fully processed each period *)
  for k = 0 to kk - 1 do
    let coeffs = row () in
    for i = 0 to p - 1 do
      coeffs.(a_var k i) <- Q.one
    done;
    add coeffs Simplex.Problem.Eq (Workload.get workload k).Workload.size
  done;
  (* one-port: total transfer time per period fits in T *)
  let port = row () in
  for k = 0 to kk - 1 do
    for i = 0 to p - 1 do
      let wk = Platform.get platform i in
      port.(a_var k i) <- wk.Platform.c +/ Workload.return_cost workload k wk
    done
  done;
  port.(t_var) <- Q.minus_one;
  add port Simplex.Problem.Le Q.zero;
  (* every worker's compute time per period fits in T *)
  for i = 0 to p - 1 do
    let coeffs = row () in
    for k = 0 to kk - 1 do
      coeffs.(a_var k i) <- (Platform.get platform i).Platform.w
    done;
    coeffs.(t_var) <- Q.minus_one;
    add coeffs Simplex.Problem.Le Q.zero
  done;
  let objective = Array.make nvars Q.zero in
  objective.(t_var) <- Q.one;
  Simplex.Problem.make Simplex.Problem.Minimize objective (List.rev !constraints)

let solve platform workload =
  let ( let* ) = Result.bind in
  let p = Platform.size platform in
  let kk = Workload.size workload in
  let a_var k i = (k * p) + i in
  let t_var = kk * p in
  let problem = problem platform workload in
  match Simplex.Solver.solve problem with
  | Simplex.Solver.Infeasible -> Error Errors.Infeasible
  | Simplex.Solver.Unbounded -> Error Errors.Unbounded
  | Simplex.Solver.Optimal sol ->
    let* () = certify problem sol ~what:"Steady_state.solve" in
    let point = sol.Simplex.Solver.point in
    let alloc =
      Array.init kk (fun k -> Array.init p (fun i -> point.(a_var k i)))
    in
    let port_time =
      Q.sum_array
        (Array.init kk (fun k ->
             Q.sum_array
               (Array.init p (fun i ->
                    let wk = Platform.get platform i in
                    alloc.(k).(i)
                    */ (wk.Platform.c +/ Workload.return_cost workload k wk)))))
    in
    let work_time =
      Array.init p (fun i ->
          (Platform.get platform i).Platform.w
          */ Q.sum_array (Array.init kk (fun k -> alloc.(k).(i))))
    in
    let period = point.(t_var) in
    Ok
      {
        platform;
        workload;
        period;
        alloc;
        port_time;
        work_time;
        throughput = Workload.total_size workload // period;
        pivots = sol.Simplex.Solver.pivots;
      }

let solve_exn platform workload = Errors.get_exn (solve platform workload)

(* ------------------------------------------------------------------ *)
(* Finite batches                                                      *)

type batch = {
  b_platform : Platform.t;
  b_workload : Workload.t;
  order : int array;
  sequence : int array;
  depth : int;
  makespan : Q.t;
  chunks : Q.t array array;
  send_starts : Q.t array array;
  compute_starts : Q.t array array;
  return_starts : Q.t array array;
  b_pivots : int;
}

(* Load sequence: release order, ties by position (a stable sort). *)
let sequence_of workload =
  let kk = Workload.size workload in
  let seq = Array.init kk Fun.id in
  let arr = Array.map (fun k -> ((Workload.get workload k).Workload.release, k)) seq in
  Array.sort (fun (r1, k1) (r2, k2) ->
      match Q.compare r1 r2 with 0 -> compare k1 k2 | c -> c) arr;
  Array.map snd arr

(* The port's activity sequence at interleave depth D: send-blocks
   S_0 .. S_D first, then R_j alternating with S_{D+1+j}, then the
   trailing returns.  Depth 0 is back-to-back (S R S R ...); depth
   K-1 is the paper's single-load shape (all sends, then all
   returns). *)
let port_blocks ~depth kk =
  let blocks = ref [] in
  let push b = blocks := b :: !blocks in
  let d = min depth (kk - 1) in
  for k = 0 to d do
    push (`Send k)
  done;
  for j = 0 to kk - 1 do
    push (`Return j);
    if d + 1 + j < kk then push (`Send (d + 1 + j))
  done;
  List.rev !blocks

(* Batch LP variable layout over [q] order slots and [kk] loads: four
   blocks of [kk * q] variables (chunk sizes, send, compute and return
   starts), each indexed by sequence position [k] and slot [j], then
   the makespan. *)
let batch_var ~q ~kk block k j = (block * kk * q) + (k * q) + j

let batch_problem ?(depth = 1) ?order platform workload =
  if depth < 0 then invalid_arg "Steady_state.batch_problem: negative depth";
  let order = match order with Some o -> o | None -> Fifo.order platform in
  (* Validate the worker order as a scenario over the platform. *)
  ignore (Scenario.fifo_exn platform order);
  let q = Array.length order in
  let kk = Workload.size workload in
  let seq = sequence_of workload in
  let nvars = (4 * kk * q) + 1 in
  (* [k] below is a sequence position, not a workload index. *)
  let a_var = batch_var ~q ~kk 0 and u_var = batch_var ~q ~kk 1 in
  let s_var = batch_var ~q ~kk 2 and t_var = batch_var ~q ~kk 3 in
  let m_var = nvars - 1 in
  let wk j = Platform.get platform order.(j) in
  let dcost k j = Workload.return_cost workload seq.(k) (wk j) in
  let release k = (Workload.get workload seq.(k)).Workload.release in
  let size k = (Workload.get workload seq.(k)).Workload.size in
  let row () = Array.make nvars Q.zero in
  let constraints = ref [] in
  let add coeffs relation rhs =
    constraints := Simplex.Problem.constr coeffs relation rhs :: !constraints
  in
  let le coeffs rhs = add coeffs Simplex.Problem.Le rhs in
  for k = 0 to kk - 1 do
    (* the whole load is distributed *)
    let coeffs = row () in
    for j = 0 to q - 1 do
      coeffs.(a_var k j) <- Q.one
    done;
    add coeffs Simplex.Problem.Eq (size k);
    for j = 0 to q - 1 do
      (* no data leaves the master before the release date *)
      let coeffs = row () in
      coeffs.(u_var k j) <- Q.minus_one;
      le coeffs (Q.neg (release k));
      (* computation starts after reception *)
      let coeffs = row () in
      coeffs.(u_var k j) <- Q.one;
      coeffs.(a_var k j) <- (wk j).Platform.c;
      coeffs.(s_var k j) <- Q.minus_one;
      le coeffs Q.zero;
      (* a worker computes its chunks in sequence order *)
      if k > 0 then begin
        let coeffs = row () in
        coeffs.(s_var (k - 1) j) <- Q.one;
        coeffs.(a_var (k - 1) j) <- (wk j).Platform.w;
        coeffs.(s_var k j) <- Q.minus_one;
        le coeffs Q.zero
      end;
      (* the return waits for the computation *)
      let coeffs = row () in
      coeffs.(s_var k j) <- Q.one;
      coeffs.(a_var k j) <- (wk j).Platform.w;
      coeffs.(t_var k j) <- Q.minus_one;
      le coeffs Q.zero;
      (* the makespan covers every return's end *)
      let coeffs = row () in
      coeffs.(t_var k j) <- Q.one;
      coeffs.(a_var k j) <- dcost k j;
      coeffs.(m_var) <- Q.minus_one;
      le coeffs Q.zero
    done
  done;
  (* one-port chain over the interleaved block sequence *)
  let items =
    List.concat_map
      (fun block ->
        List.init q (fun j ->
            match block with
            | `Send k -> (u_var k j, (wk j).Platform.c, a_var k j)
            | `Return k -> (t_var k j, dcost k j, a_var k j)))
      (port_blocks ~depth kk)
  in
  let rec chain = function
    | (sv, cost, av) :: ((sv', _, _) :: _ as rest) ->
      let coeffs = row () in
      coeffs.(sv) <- Q.one;
      coeffs.(av) <- cost;
      coeffs.(sv') <- Q.minus_one;
      le coeffs Q.zero;
      chain rest
    | _ -> ()
  in
  chain items;
  let objective = Array.make nvars Q.zero in
  objective.(m_var) <- Q.one;
  Simplex.Problem.make Simplex.Problem.Minimize objective (List.rev !constraints)

let solve_batch ?(depth = 1) ?order platform workload =
  let ( let* ) = Result.bind in
  if depth < 0 then invalid_arg "Steady_state.solve_batch: negative depth";
  let order = match order with Some o -> o | None -> Fifo.order platform in
  let problem = batch_problem ~depth ~order platform workload in
  let q = Array.length order in
  let kk = Workload.size workload in
  let seq = sequence_of workload in
  let a_var = batch_var ~q ~kk 0 and u_var = batch_var ~q ~kk 1 in
  let s_var = batch_var ~q ~kk 2 and t_var = batch_var ~q ~kk 3 in
  let m_var = 4 * kk * q in
  match Simplex.Solver.solve problem with
  | Simplex.Solver.Infeasible -> Error Errors.Infeasible
  | Simplex.Solver.Unbounded -> Error Errors.Unbounded
  | Simplex.Solver.Optimal sol ->
    let* () = certify problem sol ~what:"Steady_state.solve_batch" in
    let point = sol.Simplex.Solver.point in
    (* re-index from sequence position back to workload load index *)
    let by_load f =
      let out = Array.make kk [||] in
      Array.iteri
        (fun k load -> out.(load) <- Array.init q (fun j -> point.(f k j)))
        seq;
      out
    in
    Ok
      {
        b_platform = platform;
        b_workload = workload;
        order;
        sequence = seq;
        depth;
        makespan = point.(m_var);
        chunks = by_load a_var;
        send_starts = by_load u_var;
        compute_starts = by_load s_var;
        return_starts = by_load t_var;
        b_pivots = sol.Simplex.Solver.pivots;
      }

let solve_batch_best ?max_depth ?order platform workload =
  let kk = Workload.size workload in
  let max_depth = match max_depth with Some d -> d | None -> min 2 (kk - 1) in
  let best = ref None in
  let err = ref None in
  for depth = 0 to max 0 max_depth do
    match solve_batch ~depth ?order platform workload with
    | Error e -> if !err = None then err := Some e
    | Ok b -> (
      match !best with
      | Some prev when prev.makespan <=/ b.makespan -> ()
      | _ -> best := Some b)
  done;
  match (!best, !err) with
  | Some b, _ -> Ok b
  | None, Some e -> Error e
  | None, None -> Error Errors.Infeasible

let port_sequence (b : batch) =
  let q = Array.length b.order in
  List.concat_map
    (fun block ->
      List.init q (fun j ->
          match block with
          | `Send k -> (`Send, b.sequence.(k), j)
          | `Return k -> (`Return, b.sequence.(k), j)))
    (port_blocks ~depth:b.depth (Workload.size b.b_workload))

let batch_schedules (b : batch) =
  let kk = Workload.size b.b_workload in
  Array.init kk (fun k ->
      let induced =
        Workload.induced_platform b.b_workload k b.b_platform
      in
      let entries = ref [] in
      Array.iteri
        (fun j i ->
          let a = b.chunks.(k).(j) in
          if Q.sign a > 0 then begin
            let wk = Platform.get induced i in
            let u = b.send_starts.(k).(j)
            and s = b.compute_starts.(k).(j)
            and t = b.return_starts.(k).(j) in
            entries :=
              {
                Schedule.worker = i;
                alpha = a;
                send = { Schedule.start = u; finish = u +/ (a */ wk.Platform.c) };
                compute = { Schedule.start = s; finish = s +/ (a */ wk.Platform.w) };
                return_ = { Schedule.start = t; finish = t +/ (a */ wk.Platform.d) };
              }
              :: !entries
          end)
        b.order;
      ( k,
        {
          Schedule.platform = induced;
          horizon = b.makespan;
          entries = Array.of_list (List.rev !entries);
        } ))

let naive_makespan platform workload =
  let ( let* ) = Result.bind in
  let seq = sequence_of workload in
  let rec go clock warm = function
    | [] -> Ok clock
    | k :: rest ->
      let l = Workload.get workload k in
      let induced = Workload.induced_platform workload k platform in
      let scenario = Scenario.fifo_exn induced (Fifo.order induced) in
      let* sol = Solve.solve ~mode:`Fast ?warm scenario in
      let span = Lp_model.time_for_load sol ~load:l.Workload.size in
      let start = Q.max clock l.Workload.release in
      go (start +/ span) (Some sol.Lp_model.basis) rest
  in
  go Q.zero None (Array.to_list seq)

let pp fmt s =
  Format.fprintf fmt
    "@[<v>period = %s (~%.6g), throughput = %s (~%.6g)@,port busy = %s@,"
    (Q.to_string s.period) (Q.to_float s.period)
    (Q.to_string s.throughput)
    (Q.to_float s.throughput)
    (Q.to_string s.port_time);
  Array.iteri
    (fun k per_load ->
      Format.fprintf fmt "  %-6s alloc: %s@,"
        (Workload.get s.workload k).Workload.name
        (String.concat " " (Array.to_list (Array.map Q.to_string per_load))))
    s.alloc;
  Format.fprintf fmt "@]"

let pp_batch fmt b =
  Format.fprintf fmt "@[<v>makespan = %s (~%.6g), depth = %d@,"
    (Q.to_string b.makespan) (Q.to_float b.makespan) b.depth;
  Array.iteri
    (fun k per_load ->
      Format.fprintf fmt "  %-6s chunks: %s@,"
        (Workload.get b.b_workload k).Workload.name
        (String.concat " " (Array.to_list (Array.map Q.to_string per_load))))
    b.chunks;
  Format.fprintf fmt "@]"
