module Q = Numeric.Rational
open Q.Infix

type violation =
  | Nonpositive_load of { worker : int }
  | Duplicate_worker of { worker : int }
  | Bad_phase of { worker : int; phase : string }
  | Duration_mismatch of {
      worker : int;
      phase : string;
      expected : Q.t;
      actual : Q.t;
    }
  | Compute_before_receive of { worker : int }
  | Return_before_compute of { worker : int }
  | Outside_horizon of { worker : int; finish : Q.t; horizon : Q.t }
  | One_port_overlap of {
      worker1 : int;
      phase1 : string;
      worker2 : int;
      phase2 : string;
    }
  | Load_sum_mismatch of { claimed : Q.t; actual : Q.t }
  | Recovery_misses_deadline of { finish : Q.t; deadline : Q.t }
  | Recovery_accounting of { msg : string }
  | In_load of { load : string; violation : violation }
  | Batch_size_mismatch of { load : string; expected : Q.t; actual : Q.t }
  | Release_violated of {
      load : string;
      worker : int;
      start : Q.t;
      release : Q.t;
    }
  | Worker_overlap of { worker : int; load1 : string; load2 : string }
  | Steady_negative_alloc of { load : string; worker : int }
  | Steady_overload of { resource : string; busy : Q.t; period : Q.t }
  | Steady_slack of { period : Q.t; busy : Q.t }

let rec violation_to_string platform v =
  let name i = (Dls.Platform.get platform i).Dls.Platform.name in
  match v with
  | Nonpositive_load { worker } -> Printf.sprintf "%s: non-positive load" (name worker)
  | Duplicate_worker { worker } ->
    Printf.sprintf "%s: appears in several entries" (name worker)
  | Bad_phase { worker; phase } ->
    Printf.sprintf "%s: %s phase is ill-formed (negative start or length)"
      (name worker) phase
  | Duration_mismatch { worker; phase; expected; actual } ->
    Printf.sprintf "%s: %s duration is %s, expected %s" (name worker) phase
      (Q.to_string actual) (Q.to_string expected)
  | Compute_before_receive { worker } ->
    Printf.sprintf "%s: computes before data fully received" (name worker)
  | Return_before_compute { worker } ->
    Printf.sprintf "%s: returns results before computation ends" (name worker)
  | Outside_horizon { worker; finish; horizon } ->
    Printf.sprintf "%s: finishes at %s, after the horizon %s" (name worker)
      (Q.to_string finish) (Q.to_string horizon)
  | One_port_overlap { worker1; phase1; worker2; phase2 } ->
    Printf.sprintf "one-port violation: %s(%s) overlaps %s(%s)" phase1
      (name worker1) phase2 (name worker2)
  | Load_sum_mismatch { claimed; actual } ->
    Printf.sprintf "claimed throughput %s but validated loads sum to %s"
      (Q.to_string claimed) (Q.to_string actual)
  | Recovery_misses_deadline { finish; deadline } ->
    Printf.sprintf "recovery schedule ends at %s, after the deadline %s"
      (Q.to_string finish) (Q.to_string deadline)
  | Recovery_accounting { msg } -> Printf.sprintf "recovery accounting: %s" msg
  | In_load { load; violation } ->
    Printf.sprintf "load %s: %s" load (violation_to_string platform violation)
  | Batch_size_mismatch { load; expected; actual } ->
    Printf.sprintf "load %s: chunks sum to %s, expected %s" load
      (Q.to_string actual) (Q.to_string expected)
  | Release_violated { load; worker; start; release } ->
    Printf.sprintf "load %s: %s receives data at %s, before release %s" load
      (name worker) (Q.to_string start) (Q.to_string release)
  | Worker_overlap { worker; load1; load2 } ->
    Printf.sprintf "%s: computations of loads %s and %s overlap" (name worker)
      load1 load2
  | Steady_negative_alloc { load; worker } ->
    Printf.sprintf "load %s: negative allocation on %s" load (name worker)
  | Steady_overload { resource; busy; period } ->
    Printf.sprintf "%s busy %s per period exceeds the period %s" resource
      (Q.to_string busy) (Q.to_string period)
  | Steady_slack { period; busy } ->
    Printf.sprintf
      "period %s leaves slack on every resource (max busy %s): not optimal"
      (Q.to_string period) (Q.to_string busy)

(* A master transfer, for the one-port sweep. *)
type transfer = { t_worker : int; t_phase : string; t_start : Q.t; t_finish : Q.t }

(* Sort by start date and sweep with the furthest finish seen so far.
   Touching intervals (finish of one equal to start of the next) are
   explicitly NOT overlapping; only a strict crossing is reported. *)
let sweep_one_port transfers ~add =
  let transfers =
    List.sort
      (fun a b ->
        let c = Q.compare a.t_start b.t_start in
        if c <> 0 then c else Q.compare a.t_finish b.t_finish)
      transfers
  in
  match transfers with
  | [] -> ()
  | first :: rest ->
    ignore
      (List.fold_left
         (fun frontier t ->
           if t.t_start </ frontier.t_finish then
             add
               (One_port_overlap
                  {
                    worker1 = frontier.t_worker;
                    phase1 = frontier.t_phase;
                    worker2 = t.t_worker;
                    phase2 = t.t_phase;
                  });
           if t.t_finish >/ frontier.t_finish then t else frontier)
         first rest)

let validate (sched : Dls.Schedule.t) =
  let open Dls.Schedule in
  let errs = ref [] in
  let add v = errs := v :: !errs in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun e ->
      let wk = Dls.Platform.get sched.platform e.worker in
      if Hashtbl.mem seen e.worker then add (Duplicate_worker { worker = e.worker })
      else Hashtbl.add seen e.worker ();
      if Q.sign e.alpha <= 0 then add (Nonpositive_load { worker = e.worker });
      let phase name p cost =
        if Q.sign p.start < 0 || p.finish </ p.start then
          add (Bad_phase { worker = e.worker; phase = name })
        else begin
          let actual = p.finish -/ p.start and expected = e.alpha */ cost in
          if actual <>/ expected then
            add (Duration_mismatch { worker = e.worker; phase = name; expected; actual })
        end
      in
      phase "send" e.send wk.Dls.Platform.c;
      phase "compute" e.compute wk.Dls.Platform.w;
      phase "return" e.return_ wk.Dls.Platform.d;
      if e.send.finish >/ e.compute.start then
        add (Compute_before_receive { worker = e.worker });
      if e.compute.finish >/ e.return_.start then
        add (Return_before_compute { worker = e.worker });
      List.iter
        (fun p ->
          if p.finish >/ sched.horizon then
            add
              (Outside_horizon
                 { worker = e.worker; finish = p.finish; horizon = sched.horizon }))
        [ e.send; e.compute; e.return_ ])
    sched.entries;
  (* One-port: no two of the master's transfers may strictly overlap. *)
  let transfers =
    List.concat_map
      (fun e ->
        [
          { t_worker = e.worker; t_phase = "send"; t_start = e.send.start; t_finish = e.send.finish };
          {
            t_worker = e.worker;
            t_phase = "return";
            t_start = e.return_.start;
            t_finish = e.return_.finish;
          };
        ])
      (Array.to_list sched.entries)
  in
  sweep_one_port transfers ~add;
  if !errs = [] then Ok () else Error (List.rev !errs)

let validate_solved (sol : Dls.Lp_model.solved) =
  let sched = Dls.Schedule.of_solved sol in
  let base = match validate sched with Ok () -> [] | Error vs -> vs in
  (* The schedule omits zero-load workers, so the sum of its entries must
     reproduce the claimed throughput on its own. *)
  let total = Dls.Schedule.total_load sched in
  let errs =
    if total <>/ sol.Dls.Lp_model.rho then
      base @ [ Load_sum_mismatch { claimed = sol.Dls.Lp_model.rho; actual = total } ]
    else base
  in
  if errs = [] then Ok () else Error errs

let validate_recovery ~deadline (r : Dls.Replan.recovery) =
  let open Dls.Replan in
  (* The spliced schedule's dates are relative to the splice point
     [r.at]; it must validate {e exactly} on the degraded platform it
     embeds, carry exactly the load it claims, keep the residual
     accounting consistent, and land before the campaign deadline. *)
  let base = match validate r.schedule with Ok () -> [] | Error vs -> vs in
  let errs = ref (List.rev base) in
  let add v = errs := v :: !errs in
  let total = Dls.Schedule.total_load r.schedule in
  if total <>/ r.planned then
    add (Load_sum_mismatch { claimed = r.planned; actual = total });
  let finish = r.at +/ Dls.Schedule.makespan r.schedule in
  if finish >/ deadline then add (Recovery_misses_deadline { finish; deadline });
  if Q.sign r.banked < 0 then
    add (Recovery_accounting { msg = "negative banked load" });
  if Q.sign r.unscheduled < 0 then
    add (Recovery_accounting { msg = "negative unscheduled load" });
  if r.planned +/ r.unscheduled <>/ r.residual then
    add
      (Recovery_accounting
         {
           msg =
             Printf.sprintf "planned %s + unscheduled %s <> residual %s"
               (Q.to_string r.planned) (Q.to_string r.unscheduled)
               (Q.to_string r.residual);
         });
  match List.rev !errs with [] -> Ok () | vs -> Error vs

(* ------------------------------------------------------------------ *)
(* Multi-load validation                                               *)

let validate_steady (s : Dls.Steady_state.solved) =
  let open Dls.Steady_state in
  let errs = ref [] in
  let add v = errs := v :: !errs in
  let workload = s.workload in
  let lname k = (Dls.Workload.get workload k).Dls.Workload.name in
  Array.iteri
    (fun k per_load ->
      Array.iteri
        (fun i a ->
          if Q.sign a < 0 then
            add (Steady_negative_alloc { load = lname k; worker = i }))
        per_load;
      let total = Q.sum_array per_load in
      let expected = (Dls.Workload.get workload k).Dls.Workload.size in
      if total <>/ expected then
        add (Batch_size_mismatch { load = lname k; expected; actual = total }))
    s.alloc;
  (* Re-derive both resource loads from the allocation and check them
     against the period — and that at least one resource is tight, or
     the period is not minimal. *)
  let platform = s.platform in
  let port =
    Q.sum
      (List.concat
         (List.init (Array.length s.alloc) (fun k ->
              List.init (Dls.Platform.size platform) (fun i ->
                  let wk = Dls.Platform.get platform i in
                  s.alloc.(k).(i)
                  */ (wk.Dls.Platform.c +/ Dls.Workload.return_cost workload k wk)))))
  in
  if port <>/ s.port_time then
    add
      (Recovery_accounting
         {
           msg =
             Printf.sprintf "claimed port time %s, recomputed %s"
               (Q.to_string s.port_time) (Q.to_string port);
         });
  if port >/ s.period then
    add (Steady_overload { resource = "port"; busy = port; period = s.period });
  let busiest = ref port in
  Array.iteri
    (fun i busy ->
      if busy >/ s.period then
        add
          (Steady_overload
             {
               resource = (Dls.Platform.get platform i).Dls.Platform.name;
               busy;
               period = s.period;
             });
      if busy >/ !busiest then busiest := busy)
    s.work_time;
  if !busiest </ s.period then
    add (Steady_slack { period = s.period; busy = !busiest });
  if !errs = [] then Ok () else Error (List.rev !errs)

let validate_batch (b : Dls.Steady_state.batch) =
  let open Dls.Steady_state in
  let errs = ref [] in
  let add v = errs := v :: !errs in
  let workload = b.b_workload in
  let lname k = (Dls.Workload.get workload k).Dls.Workload.name in
  (* Chunk accounting against the load sizes. *)
  Array.iteri
    (fun k per_load ->
      let total = Q.sum_array per_load in
      let expected = (Dls.Workload.get workload k).Dls.Workload.size in
      if total <>/ expected then
        add (Batch_size_mismatch { load = lname k; expected; actual = total }))
    b.chunks;
  (* Per-load invariants: realize each load as a schedule on its induced
     platform (phase durations, precedence, horizon containment) — the
     per-load one-port sweep is subsumed by the global one below. *)
  let schedules = batch_schedules b in
  let computes = ref [] in
  let transfers = ref [] in
  Array.iter
    (fun (k, sched) ->
      (match validate sched with
      | Ok () -> ()
      | Error vs ->
        List.iter (fun v -> add (In_load { load = lname k; violation = v })) vs);
      let release = (Dls.Workload.get workload k).Dls.Workload.release in
      Array.iter
        (fun e ->
          let open Dls.Schedule in
          if e.send.start </ release then
            add
              (Release_violated
                 {
                   load = lname k;
                   worker = e.worker;
                   start = e.send.start;
                   release;
                 });
          computes :=
            (lname k, e.worker, e.compute.start, e.compute.finish) :: !computes;
          transfers :=
            { t_worker = e.worker; t_phase = "send"; t_start = e.send.start; t_finish = e.send.finish }
            :: {
                 t_worker = e.worker;
                 t_phase = "return";
                 t_start = e.return_.start;
                 t_finish = e.return_.finish;
               }
            :: !transfers)
        sched.Dls.Schedule.entries)
    schedules;
  (* Global one-port: all transfers of all loads share the master's port. *)
  sweep_one_port !transfers ~add;
  (* A worker computes one chunk at a time, across loads. *)
  let by_worker = Hashtbl.create 8 in
  List.iter
    (fun (l, w, s, f) ->
      Hashtbl.replace by_worker w
        ((l, s, f) :: Option.value ~default:[] (Hashtbl.find_opt by_worker w)))
    !computes;
  Hashtbl.iter
    (fun w phases ->
      let phases =
        List.sort
          (fun (_, s1, f1) (_, s2, f2) ->
            let c = Q.compare s1 s2 in
            if c <> 0 then c else Q.compare f1 f2)
          phases
      in
      match phases with
      | [] -> ()
      | first :: rest ->
        ignore
          (List.fold_left
             (fun (l1, s1, f1) (l2, s2, f2) ->
               if s2 </ f1 then
                 add (Worker_overlap { worker = w; load1 = l1; load2 = l2 });
               if f2 >/ f1 then (l2, s2, f2) else (l1, s1, f1))
             first rest))
    by_worker;
  if !errs = [] then Ok () else Error (List.rev !errs)

let errors_of_result platform = function
  | Ok () -> Ok ()
  | Error vs -> Error (List.map (violation_to_string platform) vs)
