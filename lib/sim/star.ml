module Q = Numeric.Rational

type noise = {
  comm : worker:int -> float -> float;
  comp : worker:int -> float -> float;
}

let no_noise = { comm = (fun ~worker:_ x -> x); comp = (fun ~worker:_ x -> x) }

type protocol = Dls.Port_walk.protocol = Sends_first | Eager_returns

type plan = { sigma1 : int array; sigma2 : int array; loads : float array }

let plan_with (sol : Dls.Lp_model.solved) loads =
  let s = sol.Dls.Lp_model.scenario in
  { sigma1 = Array.copy s.Dls.Scenario.sigma1; sigma2 = Array.copy s.Dls.Scenario.sigma2; loads }

let plan_of_solved sol = plan_with sol (Array.map Q.to_float sol.Dls.Lp_model.alpha)

let plan_of_rounded sol ~total =
  plan_with sol (Array.map float_of_int (Dls.Rounding.integer_loads sol ~total))

type multi_op = {
  op_load : int;
  op_worker : int;
  op_kind : kind;
  op_amount : float;
  op_release : float;
  op_comm : float;
  op_comp : float;
}

and kind = Dls.Port_walk.direction = Op_send | Op_return

type multi_plan = { ops : multi_op list }

(* The linear-model operation moving [a] units to or from worker [i]; a
   multi-load batch passes its load index, release date and per-load
   return cost [d]. *)
let linear_op ?(load = 0) ?(release = 0.0) ?d platform op_kind i a =
  let wk = Dls.Platform.get platform i in
  let send = op_kind = Op_send in
  let cost = if send then wk.Dls.Platform.c else Option.value d ~default:wk.Dls.Platform.d in
  {
    op_load = load;
    op_worker = i;
    op_kind;
    op_amount = a;
    op_release = (if send then release else 0.0);
    op_comm = a *. Q.to_float cost;
    op_comp = (if send then a *. Q.to_float wk.Dls.Platform.w else 0.0);
  }

let valid_amount x = Float.is_finite x && x >= 0.0

(* A malformed plan used to wedge the simulator silently: a worker
   enrolled in [sigma2] but never sent data waits forever, so its return
   simply vanishes from the trace and the makespan lies.  NaN loads
   poison the clock.  Validate up front and fail with a typed error
   instead. *)
let check_plan platform plan =
  let n = Dls.Platform.size platform in
  let ( let* ) = Result.bind in
  let* () =
    if Array.length plan.loads = n then Ok ()
    else
      Dls.Errors.invalid "plan carries %d loads for a %d-worker platform"
        (Array.length plan.loads) n
  in
  let* () =
    match Array.find_index (fun l -> not (valid_amount l)) plan.loads with
    | Some i ->
      Dls.Errors.invalid "worker %d has invalid load %g (negative, NaN or infinite)" i
        plan.loads.(i)
    | None -> Ok ()
  in
  let check_order name order =
    let seen = Array.make n false in
    Array.fold_left
      (fun acc i ->
        let* () = acc in
        if i < 0 || i >= n then
          Dls.Errors.invalid "%s refers to worker %d, platform has %d workers" name i n
        else if seen.(i) then Dls.Errors.invalid "%s enrolls worker %d twice" name i
        else Ok (seen.(i) <- true))
      (Ok ()) order
  in
  let* () = check_order "sigma1" plan.sigma1 in
  let* () = check_order "sigma2" plan.sigma2 in
  let enrolled i = Array.mem i plan.sigma1 && Array.mem i plan.sigma2 in
  match
    List.find_opt (fun i -> plan.loads.(i) > 0.0 && not (enrolled i)) (List.init n Fun.id)
  with
  | Some i ->
    Dls.Errors.invalid
      "worker %d has load %g but is not enrolled in both orders (its results \
       would never come back)"
      i plan.loads.(i)
  | None -> Ok ()

(* The same checks for a port-operation list, whatever produced it. *)
let check_ops n ops =
  let sent = Array.make n 0 in
  List.fold_left
    (fun acc op ->
      Result.bind acc (fun () ->
          let i = op.op_worker in
          if i < 0 || i >= n then
            Dls.Errors.invalid "operation on worker %d, platform has %d workers" i n
          else if
            not
              (List.for_all valid_amount
                 [ op.op_amount; op.op_release; op.op_comm; op.op_comp ])
          then
            Dls.Errors.invalid
              "operation on worker %d has a negative, NaN or infinite amount or \
               duration"
              i
          else
            match op.op_kind with
            | Op_send -> Ok (sent.(i) <- sent.(i) + 1)
            | Op_return when sent.(i) > 0 -> Ok (sent.(i) <- sent.(i) - 1)
            | Op_return -> Dls.Errors.invalid "return of worker %d without a sent chunk" i))
    (Ok ()) ops

let ops_of_plan platform plan =
  let active kind order =
    List.filter_map
      (fun i ->
        let a = plan.loads.(i) in
        if a > 0.0 then Some (linear_op platform kind i a) else None)
      (Array.to_list order)
  in
  { ops = active Op_send plan.sigma1 @ active Op_return plan.sigma2 }

module Walk = Dls.Port_walk.Make (Float)

(* Every entry point is the float walk of {!Dls.Port_walk} over a
   validated operation list, with the port free from [0.] and each
   phase lasting its nominal duration through [noise]. *)
let run ?(protocol = Sends_first) noise platform plan =
  let finish (op : (_, multi_op) Dls.Port_walk.op) phase t =
    let i = op.worker in
    Some
      (t
      +.
      match phase with
      | Trace.Compute -> noise.comp ~worker:i op.data.op_comp
      | Trace.Send | Trace.Return -> noise.comm ~worker:i op.data.op_comm)
  in
  let op o =
    { Dls.Port_walk.worker = o.op_worker; direction = o.op_kind; release = o.op_release; data = o }
  in
  Result.map
    (fun () ->
      let steps = Walk.run ~start:0.0 ~protocol ~finish (List.map op plan.ops) in
      Trace.of_steps ~date:Fun.id ~load:(fun o -> o.op_amount) steps)
    (check_ops (Dls.Platform.size platform) plan.ops)

let execute_result ?(noise = no_noise) ?protocol platform plan =
  Result.bind (check_plan platform plan) (fun () ->
      run ?protocol noise platform (ops_of_plan platform plan))

let execute ?noise ?protocol platform plan =
  Dls.Errors.get_exn (execute_result ?noise ?protocol platform plan)

let makespan ?noise ?protocol platform plan =
  (execute ?noise ?protocol platform plan).Trace.makespan

let execute_multi ?(noise = no_noise) platform plan =
  Dls.Errors.get_exn (run noise platform plan)

(* ------------------------------------------------------------------ *)
(* Plans from the LP solutions                                         *)
(* ------------------------------------------------------------------ *)

let plan_of_multiround (s : Dls.Multiround.solved) =
  let cfg = s.Dls.Multiround.config in
  if
    not
      (Q.is_zero cfg.Dls.Multiround.send_latency
      && Q.is_zero cfg.Dls.Multiround.return_latency)
  then
    raise
      (Dls.Errors.Error
         (Dls.Errors.Invalid_scenario
            "Star.plan_of_multiround: the simulator implements the linear model \
             (zero latencies)"));
  let order = cfg.Dls.Multiround.order in
  let chunks =
    List.concat_map
      (fun per_round ->
        List.filter_map
          (fun (k, a) ->
            let a = Q.to_float a in
            if a > 0.0 then Some (order.(k), a) else None)
          (List.mapi (fun k a -> (k, a)) (Array.to_list per_round)))
      (Array.to_list s.Dls.Multiround.chunks)
  in
  let ops kind =
    List.map (fun (i, a) -> linear_op s.Dls.Multiround.platform kind i a) chunks
  in
  { ops = ops Op_send @ if cfg.Dls.Multiround.with_returns then ops Op_return else [] }

let plan_of_batch (b : Dls.Steady_state.batch) =
  let workload = b.Dls.Steady_state.b_workload in
  let platform = b.Dls.Steady_state.b_platform in
  let ops =
    List.filter_map
      (fun (kind, k, j) ->
        let i = b.Dls.Steady_state.order.(j) in
        let a = b.Dls.Steady_state.chunks.(k).(j) in
        if Q.sign a <= 0 then None
        else
          let a = Q.to_float a in
          Some
            (match kind with
            | `Send ->
              let release = Q.to_float (Dls.Workload.get workload k).Dls.Workload.release in
              linear_op ~load:k ~release platform Op_send i a
            | `Return ->
              let d = Dls.Workload.return_cost workload k (Dls.Platform.get platform i) in
              linear_op ~load:k ~d platform Op_return i a))
      (Dls.Steady_state.port_sequence b)
  in
  { ops }
