module Q = Numeric.Rational
open Q.Infix

(* ------------------------------------------------------------------ *)
(* Exact replay of a plan under faults                                 *)
(* ------------------------------------------------------------------ *)

type source = Original | Recovery

type completion = {
  worker : int;
  load : Q.t;
  source : source;
  finish : Q.t option;
}

type report = {
  deadline : Q.t;
  total : Q.t;
  done_by_deadline : Q.t;
  done_eventually : Q.t;
  makespan : Q.t option;
  completions : completion list;
}

let lateness ~deadline = function
  | None -> None
  | Some finish -> Some (Q.max Q.zero (finish -/ deadline))

(* One work assignment to execute: FIFO/LIFO orders plus per-platform-
   index loads, dispatched from [start].  The master walks its port
   ({!Port_walk}) under the [Sends_first] protocol, with every
   duration integrated through the fault plan ({!Faults.finish_time});
   it skips transfers that would never complete (perfect failure
   detection). *)
type seq = {
  sigma1 : int array;
  sigma2 : int array;
  loads : Q.t array;
  start : Q.t;
  source : source;
}

let seq_of_schedule ?(source = Original) (sched : Schedule.t) ~start =
  let n = Platform.size sched.Schedule.platform in
  let loads = Array.make n Q.zero in
  Array.iter
    (fun e -> loads.(e.Schedule.worker) <- loads.(e.Schedule.worker) +/ e.Schedule.alpha)
    sched.Schedule.entries;
  {
    sigma1 = Array.map (fun e -> e.Schedule.worker) sched.Schedule.entries;
    sigma2 =
      (let by_return = Array.copy sched.Schedule.entries in
       Array.stable_sort
         (fun a b -> Q.compare a.Schedule.return_.Schedule.start b.Schedule.return_.Schedule.start)
         by_return;
       Array.map (fun e -> e.Schedule.worker) by_return);
    loads;
    start;
    source;
  }

module Walk = Port_walk.Make (Q)

(* Only loaded workers take part, and a worker sent nothing has no
   return to take: its completion is lost. *)
let active (s : seq) order =
  List.filter (fun i -> Q.sign s.loads.(i) > 0) (Array.to_list order)

let walk_seq platform plan (s : seq) =
  let sends = active s s.sigma1 in
  let returns = List.filter (fun i -> List.mem i sends) (active s s.sigma2) in
  let op direction i =
    { Port_walk.worker = i; direction; release = s.start; data = s.loads.(i) }
  in
  let finish (op : _ Port_walk.op) phase start =
    let activity =
      match phase with
      | Port_walk.Send -> Faults.Send_to op.worker
      | Compute -> Faults.Compute_on op.worker
      | Return -> Faults.Return_from op.worker
    in
    Faults.finish_time platform plan activity ~start ~load:op.data
  in
  Walk.run ~start:s.start ~protocol:Sends_first ~finish
    (List.map (op Op_send) sends @ List.map (op Op_return) returns)

let replay_seq platform plan (s : seq) =
  let returned = Array.make (Array.length s.loads) None in
  List.iter
    (fun (st : _ Port_walk.step) ->
      if st.phase = Return then returned.(st.op.worker) <- Some st.finish)
    (walk_seq platform plan s);
  List.map
    (fun i -> { worker = i; load = s.loads.(i); source = s.source; finish = returned.(i) })
    (active s s.sigma2)

let report_of ~deadline ~total completions =
  let done_by_deadline =
    Q.sum
      (List.filter_map
         (fun c ->
           match c.finish with
           | Some f when f <=/ deadline -> Some c.load
           | _ -> None)
         completions)
  in
  let done_eventually =
    Q.sum (List.filter_map (fun c -> Option.map (fun _ -> c.load) c.finish) completions)
  in
  let makespan =
    List.fold_left
      (fun acc c ->
        match (acc, c.finish) with
        | None, _ | _, None -> None
        | Some m, Some f -> Some (Q.max m f))
      (Some Q.zero) completions
  in
  let makespan = if done_eventually =/ total then makespan else None in
  { deadline; total; done_by_deadline; done_eventually; makespan; completions }

(* ------------------------------------------------------------------ *)
(* Recovery policies                                                   *)
(* ------------------------------------------------------------------ *)

type policy = Resolve | Drop_faulty | Margin of Q.t

let policy_to_string = function
  | Resolve -> "resolve"
  | Drop_faulty -> "drop-faulty"
  | Margin m -> Printf.sprintf "margin:%s" (Q.to_string m)

let policy_of_string s =
  match String.split_on_char ':' s with
  | [ "resolve" ] -> Some Resolve
  | [ "drop-faulty" ] | [ "drop" ] -> Some Drop_faulty
  | [ "margin" ] -> Some (Margin (Q.of_ints 1 4))
  | [ "margin"; m ] -> (
    match Q.of_string m with
    | m when Q.sign m >= 0 -> Some (Margin m)
    | _ | (exception _) -> None)
  | _ -> None

let default_policies = [ Resolve; Drop_faulty; Margin (Q.of_ints 1 4) ]

type recovery = {
  at : Q.t;
  banked : Q.t;
  residual : Q.t;
  planned : Q.t;
  unscheduled : Q.t;
  degraded : Platform.t;
  schedule : Schedule.t;
}

type decision = Keep_original | Recover of recovery

type outcome = {
  plan : Faults.plan;
  deadline : Q.t;
  total : Q.t;
  policy_used : policy option;
  decision : decision;
  baseline : report;
  achieved : report;
  candidates : (policy * recovery * report) list;
}

(* Remap a schedule solved on [Platform.restrict p keep] back onto the
   full platform [p]: worker indices translate through [keep], dates and
   loads are untouched. *)
let unrestrict schedule ~platform ~keep =
  {
    schedule with
    Schedule.platform;
    entries =
      Array.map
        (fun e -> { e with Schedule.worker = keep.(e.Schedule.worker) })
        schedule.Schedule.entries;
  }

let build_recovery ~platform ~plan ~policy ~at ~banked ~residual ~deadline =
  if Q.sign (deadline -/ at) <= 0 || Q.sign residual <= 0 then None
  else begin
    let degraded = Faults.degraded_platform platform plan in
    let keep =
      match policy with
      | Resolve | Margin _ -> Faults.survivors platform plan
      | Drop_faulty ->
        let faulty = Faults.faulty_workers plan in
        List.filter
          (fun i -> not (List.mem i faulty))
          (List.init (Platform.size platform) Fun.id)
    in
    match keep with
    | [] -> None
    | keep ->
      let keep = Array.of_list keep in
      (* Stalls are transient, so [degraded_platform] cannot fold them
         into the parameters; budget for them instead — every stall
         window of an enrolled worker that intersects the remaining
         horizon can delay the port chain by at most its length. *)
      let stall_penalty =
        Q.sum
          (List.filter_map
             (function
               | Faults.Stall { worker; at = s; duration }
                 when Array.exists (fun k -> k = worker) keep ->
                 let lo = Q.max s at and hi = Q.min (s +/ duration) deadline in
                 if hi >/ lo then Some (hi -/ lo) else None
               | _ -> None)
             (Faults.faults plan))
      in
      let budget = deadline -/ at -/ stall_penalty in
      if Q.sign budget <= 0 then None
      else begin
      let restricted = Platform.restrict degraded keep in
      let sol = Fifo.optimal restricted in
      let rho = sol.Lp_model.rho in
      if Q.sign rho <= 0 then None
      else begin
        (* How much to commit by the deadline.  [Margin m] sizes the
           commitment against a platform degraded a further [1 + m]
           on every already-faulty surviving worker
           ({!Sensitivity.perturb}), buying slack against deeper
           degradation while the emitted schedule still runs — and
           validates — on the real degraded platform. *)
        let capacity =
          match policy with
          | Resolve | Drop_faulty -> rho */ budget
          | Margin m ->
            let faulty = Faults.faulty_workers plan in
            let hedged =
              Array.to_list keep
              |> List.mapi (fun pos i -> (pos, i))
              |> List.filter (fun (_, i) -> List.mem i faulty)
              |> List.fold_left
                   (fun p (pos, _) ->
                     let p = Sensitivity.perturb p (Sensitivity.Comm pos) ~factor:(Q.one +/ m) in
                     Sensitivity.perturb p (Sensitivity.Comp pos) ~factor:(Q.one +/ m))
                   restricted
            in
            (Fifo.optimal hedged).Lp_model.rho */ budget
        in
        let planned = Q.min residual capacity in
        if Q.sign planned <= 0 then None
        else
          let schedule =
            unrestrict (Schedule.for_load sol ~load:planned) ~platform:degraded ~keep
          in
          Some
            {
              at;
              banked;
              residual;
              planned;
              unscheduled = residual -/ planned;
              degraded;
              schedule;
            }
      end
      end
  end

let better (a : report) (b : report) =
  (* Strictly better: more done by the deadline, then more done
     eventually.  Ties go to the incumbent (the caller iterates with the
     baseline first), so re-planning is only chosen when it wins. *)
  match Q.compare a.done_by_deadline b.done_by_deadline with
  | 0 -> Q.compare a.done_eventually b.done_eventually > 0
  | c -> c > 0

let respond ?(policies = default_policies) plan sol ~load =
  if Q.sign load <= 0 then Errors.invalid "Replan.respond: non-positive load"
  else begin
    let platform = sol.Lp_model.scenario.Scenario.platform in
    match Faults.validate_for platform plan with
    | Error e -> Error e
    | Ok () ->
      let deadline = Lp_model.time_for_load sol ~load in
      let original = Schedule.for_load sol ~load in
      let orig_seq = seq_of_schedule original ~start:Q.zero in
      let baseline =
        report_of ~deadline ~total:load (replay_seq platform plan orig_seq)
      in
      let splice =
        match Faults.first_onset plan with
        | None -> None
        | Some t0 when t0 >=/ deadline -> None
        | Some t0 ->
          (* What the fault-free run had fully returned by [t0] is
             banked; in-flight transfers and computations are cancelled
             and their load folded into the residual. *)
          let fault_free = replay_seq platform Faults.empty orig_seq in
          let banked_completions =
            List.filter
              (fun c -> match c.finish with Some f -> f <=/ t0 | None -> false)
              fault_free
          in
          let banked = Q.sum (List.map (fun c -> c.load) banked_completions) in
          Some (t0, banked, load -/ banked, banked_completions)
      in
      let candidates =
        match splice with
        | None -> []
        | Some (at, banked, residual, banked_completions) ->
          List.filter_map
            (fun policy ->
              match
                build_recovery ~platform ~plan ~policy ~at ~banked ~residual
                  ~deadline
              with
              | None -> None
              | Some recovery ->
                let seq =
                  seq_of_schedule ~source:Recovery recovery.schedule ~start:Q.zero
                in
                let seq = { seq with start = at } in
                (* Dates inside the recovery schedule are relative to
                   [at]; the replay re-derives absolute dates from the
                   protocol, so only the dispatch origin matters. *)
                let completions =
                  banked_completions @ replay_seq platform plan seq
                in
                let report = report_of ~deadline ~total:load completions in
                Some (policy, recovery, report))
            policies
      in
      let chosen =
        List.fold_left
          (fun acc (policy, recovery, report) ->
            match acc with
            | Some (_, _, best) when not (better report best) -> acc
            | _ when not (better report baseline) -> acc
            | _ -> Some (policy, recovery, report))
          None candidates
      in
      let policy_used, decision, achieved =
        match chosen with
        | None -> (None, Keep_original, baseline)
        | Some (policy, recovery, report) -> (Some policy, Recover recovery, report)
      in
      Ok
        {
          plan;
          deadline;
          total = load;
          policy_used;
          decision;
          baseline;
          achieved;
          candidates;
        }
  end

let respond_exn ?policies plan sol ~load =
  Errors.get_exn (respond ?policies plan sol ~load)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let fraction num den = if Q.is_zero den then 0.0 else Q.to_float (num // den)

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "@[<v>by deadline %s: %s of %s load (%.1f%%); eventually %s%s@,"
    (Q.to_string r.deadline)
    (Q.to_string r.done_by_deadline)
    (Q.to_string r.total)
    (100.0 *. fraction r.done_by_deadline r.total)
    (Q.to_string r.done_eventually)
    (match r.makespan with
    | Some m -> Printf.sprintf "; makespan %s (~%.6g)" (Q.to_string m) (Q.to_float m)
    | None -> "; some work never completes");
  List.iter
    (fun c ->
      Format.fprintf fmt "  worker %d: %s load, %s%s@," c.worker
        (Q.to_string c.load)
        (match c.finish with
        | None -> "LOST"
        | Some f -> Printf.sprintf "returned at %s (~%.6g)" (Q.to_string f) (Q.to_float f))
        (match lateness ~deadline:r.deadline c.finish with
        | Some l when Q.sign l > 0 -> Printf.sprintf ", late by %s" (Q.to_string l)
        | _ -> ""))
    r.completions;
  Format.fprintf fmt "@]"

let pp_outcome fmt o =
  Format.fprintf fmt "@[<v>faults:@,%s" (String.trim (Faults.to_string o.plan));
  Format.fprintf fmt "@,decision: %s@,"
    (match o.decision with
    | Keep_original -> "keep original schedule (re-planning would not help)"
    | Recover r ->
      Printf.sprintf
        "re-plan at %s [%s]: %s banked, %s residual, %s re-scheduled%s"
        (Q.to_string r.at)
        (match o.policy_used with Some p -> policy_to_string p | None -> "?")
        (Q.to_string r.banked) (Q.to_string r.residual) (Q.to_string r.planned)
        (if Q.sign r.unscheduled > 0 then
           Printf.sprintf " (%s beyond the deadline capacity)" (Q.to_string r.unscheduled)
         else ""));
  Format.fprintf fmt "no-recovery baseline:@,  @[%a@]@," pp_report o.baseline;
  Format.fprintf fmt "achieved:@,  @[%a@]@]" pp_report o.achieved
