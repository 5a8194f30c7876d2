(** Execution under an injected fault plan.

    The {!Star.run} loop with the [Sends_first] protocol, where every
    phase is dated by {!Dls.Faults.finish_time}.  The clock stays a
    float, but each date is the rounding of the exact rational the
    integrator returned, so a schedule run from its exact loads
    ({!execute}, {!execute_decision}) reproduces {!Dls.Replan.replay_seq} to one
    rounding per date.  A send, computation or result message that would
    never complete (a crash) loses the worker's results; the master
    skips that return at once, without holding the port — the
    perfect-detection rule of the exact replay.  test_sim's "replay"
    group checks the agreement. *)

(** [execute platform faults seq] runs the assignment from [seq.start]
    under the fault plan, from its exact loads.  Malformed orders error
    as in {!Star.execute_result}. *)
val execute :
  Dls.Platform.t -> Dls.Faults.plan -> Dls.Replan.seq -> (Trace.t, Dls.Errors.t) result

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
