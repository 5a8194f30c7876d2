(** Execution under an injected fault plan.

    The exact instance of {!Dls.Port_walk}, shared with the re-planner
    ({!Dls.Replan.walk_seq}): the [Sends_first] protocol with every
    phase dated in rationals by {!Dls.Faults.finish_time}, each date
    rounded once into the trace.  A schedule that meets a fault onset
    exactly still meets it, and the trace's returns are
    {!Dls.Replan.replay_seq}'s completions, rounded.  A send,
    computation or result message that would never complete (a crash)
    loses the worker's results; the master skips that return at once,
    without holding the port. *)

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
    loads, and the prefix is cut at the exact splice date, so the
    trace's returns are the decision's [achieved] completions, rounded. *)
val execute_decision :
  Dls.Platform.t ->
  Dls.Faults.plan ->
  original:Dls.Schedule.t ->
  decision:Dls.Replan.decision ->
  (Trace.t, Dls.Errors.t) result
