module Q = Numeric.Rational

let steps platform faults (s : Dls.Replan.seq) =
  let loads = Array.map Q.to_float s.loads in
  Result.map
    (fun () -> Dls.Replan.walk_seq platform faults s)
    (Star.check_plan platform { Star.sigma1 = s.sigma1; sigma2 = s.sigma2; loads })

(* Each exact date is rounded once, here. *)
let trace steps = Trace.of_steps ~date:Q.to_float ~load:Q.to_float steps

let execute platform faults s = Result.map trace (steps platform faults s)

let execute_decision platform faults ~original ~decision =
  let ( let* ) = Result.bind in
  let seq sched ~start = Dls.Replan.seq_of_schedule sched ~start in
  match decision with
  | Dls.Replan.Keep_original -> execute platform faults (seq original ~start:Q.zero)
  | Dls.Replan.Recover r ->
    let at = r.Dls.Replan.at in
    let* fault_free = steps platform Dls.Faults.empty (seq original ~start:Q.zero) in
    let* recovery = steps platform faults (seq r.Dls.Replan.schedule ~start:at) in
    let ended (st : _ Dls.Port_walk.step) = Q.compare st.finish at <= 0 in
    Ok (trace (List.filter ended fault_free @ recovery))
