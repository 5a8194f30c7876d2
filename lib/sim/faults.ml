module Q = Numeric.Rational
module F = Dls.Faults

let plan_of_seq (s : Dls.Replan.seq) =
  {
    Star.sigma1 = s.Dls.Replan.sigma1;
    sigma2 = s.Dls.Replan.sigma2;
    loads = Array.map Q.to_float s.Dls.Replan.loads;
  }

(* Durations under faults depend on the absolute start date, so each
   phase is dated by the exact integrator.  The loop's clock is a float,
   but every date it passes back is [start] or a date this function
   returned, so remembering the rational behind each returned float
   replays {!Dls.Replan.replay_seq}'s exact arithmetic, rounded once per
   date: an LP schedule that meets a fault onset exactly still meets it.
   [loads i] is worker [i]'s exact load. *)
let run platform faults plan ~start ~loads =
  Result.bind (Star.check_plan platform plan) (fun () ->
      let exact = Hashtbl.create 16 in
      let remember q =
        let f = Q.to_float q in
        Hashtbl.replace exact f q;
        f
      in
      let lift t = match Hashtbl.find_opt exact t with Some q -> q | None -> Q.of_float t in
      let finish op phase t =
        let i = op.Star.op_worker in
        let activity =
          match phase with
          | Trace.Send -> F.Send_to i
          | Trace.Compute -> F.Compute_on i
          | Trace.Return -> F.Return_from i
        in
        Option.map remember
          (F.finish_time platform faults activity ~start:(lift t) ~load:(loads i))
      in
      Star.run ~start:(remember start) ~finish platform (Star.ops_of_plan platform plan))

let execute platform faults (s : Dls.Replan.seq) =
  run platform faults (plan_of_seq s) ~start:s.Dls.Replan.start ~loads:(fun i ->
      s.Dls.Replan.loads.(i))

let execute_schedule platform faults sched ~start =
  execute platform faults (Dls.Replan.seq_of_schedule sched ~start)

let execute_decision platform faults ~original ~decision =
  let ( let* ) = Result.bind in
  match decision with
  | Dls.Replan.Keep_original -> execute_schedule platform faults original ~start:Q.zero
  | Dls.Replan.Recover r ->
    let at = r.Dls.Replan.at in
    let* fault_free = execute_schedule platform F.empty original ~start:Q.zero in
    let prefix =
      List.filter (fun e -> e.Trace.finish <= Q.to_float at) fault_free.Trace.events
    in
    let* recovery = execute_schedule platform faults r.Dls.Replan.schedule ~start:at in
    Ok (Trace.make (prefix @ recovery.Trace.events))
