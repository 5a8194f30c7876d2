(** Execution under an injected fault plan.

    The {!Star.run} loop with the [Sends_first] protocol, where every
    phase is dated by {!Dls.Faults.finish_time}.  The clock stays a
    float, but each date is the rounding of the exact rational the
    integrator returned, so a schedule run from its exact loads
    ({!execute_decision}) reproduces {!Dls.Replan.replay_seq} to one
    rounding per date.  A send, computation or result message that would
    never complete (a crash) loses the worker's results; the master
    skips that return at once, without holding the port — the
    perfect-detection rule of the exact replay.  test_sim's "replay"
    group checks the agreement. *)

(** [plan_of_schedule sched] is {!Dls.Replan.seq_of_schedule}'s orders
    and loads, the loads converted to float. *)
val plan_of_schedule : Dls.Schedule.t -> Star.plan

(** [execute platform faults plan] runs the campaign from time [0] under
    the fault plan, lifting the float loads exactly into rationals.
    Malformed plans error as in {!Star.execute_result}. *)
val execute :
  Dls.Platform.t -> Dls.Faults.plan -> Star.plan -> (Trace.t, Dls.Errors.t) result

(** [execute_seq ~start platform faults plan] dispatches from [start]
    instead of [0]. *)
val execute_seq :
  ?start:float ->
  Dls.Platform.t ->
  Dls.Faults.plan ->
  Star.plan ->
  (Trace.t, Dls.Errors.t) result

(** [execute_decision platform faults ~original ~decision] materialises
    a re-planning decision as a single trace: the fault-free prefix of
    [original] up to the splice point, then the recovery schedule
    executed under the faults ([Keep_original] just runs [original]
    under the faults in full).  Both parts run from the schedules' exact
    loads and the exact splice date, so the trace's returns are the
    decision's [achieved] completions, rounded. *)
val execute_decision :
  Dls.Platform.t ->
  Dls.Faults.plan ->
  original:Dls.Schedule.t ->
  decision:Dls.Replan.decision ->
  (Trace.t, Dls.Errors.t) result
