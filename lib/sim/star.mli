(** Execution of a master/worker campaign on a star platform under the
    one-port model.

    The master is one sequential resource: it sends in [sigma1] order
    and receives in [sigma2] order, so executing a plan is a single pass
    over its port operations ({!run}), with no event queue.  Each send
    starts when the port is free and its data is released, the worker
    computes its chunks in arrival order, and each return starts when
    the port is free and the chunk's computation has ended.  Every
    entry point below — single-round, multi-round, multi-load, and the
    faulted executor of {!Faults} — is this one loop with a different
    operation list or duration function.  Per-operation noise hooks
    model the gap between the linear cost model and a real cluster. *)

type noise = {
  comm : worker:int -> float -> float;
      (** maps a nominal transfer duration to an observed one *)
  comp : worker:int -> float -> float;  (** same, for computations *)
}

(** [no_noise] is the identity: the simulation reproduces the linear
    model exactly. *)
val no_noise : noise

(** Master decision policy.

    - [Sends_first]: post every initial message, then receive results in
      [sigma2] order — the paper's canonical structure and what its MPI
      program did;
    - [Eager_returns]: whenever the master is free and the next worker
      in [sigma2] has finished computing, receive its results before the
      remaining sends.  Still one-port and still order-respecting, but a
      different (sometimes better, sometimes worse) interleaving — an
      execution-policy ablation the model fixes by assumption. *)
type protocol = Sends_first | Eager_returns

type plan = {
  sigma1 : int array;  (** sending order (worker indices) *)
  sigma2 : int array;  (** return order *)
  loads : float array;  (** per-worker load, indexed like the platform *)
}

(** [plan_of_solved s] uses the exact rational loads (converted to
    float). *)
val plan_of_solved : Dls.Lp_model.solved -> plan

(** [plan_of_rounded s ~total] uses the paper's integer rounding for a
    campaign of [total] items. *)
val plan_of_rounded : Dls.Lp_model.solved -> total:int -> plan

(** [check_plan platform plan] validates a plan without running it —
    the checks behind {!execute_result}. *)
val check_plan : Dls.Platform.t -> plan -> (unit, Dls.Errors.t) result

(** [execute_result ?noise ?protocol platform plan] runs the campaign
    and returns the trace (default protocol: [Sends_first]).  Workers
    with zero load produce no events.

    Malformed plans — load array size mismatch, negative/NaN/infinite
    loads, out-of-range or duplicated order entries, a loaded worker
    missing from one of the orders (whose results would silently never
    come back) — yield a typed [Error] instead of a wedged or lying
    simulation. *)
val execute_result :
  ?noise:noise ->
  ?protocol:protocol ->
  Dls.Platform.t ->
  plan ->
  (Trace.t, Dls.Errors.t) result

(** [execute ?noise ?protocol platform plan] is {!execute_result}.
    @raise Dls.Errors.Error on a malformed plan. *)
val execute : ?noise:noise -> ?protocol:protocol -> Dls.Platform.t -> plan -> Trace.t

(** [makespan ?noise ?protocol platform plan] is the trace's makespan. *)
val makespan : ?noise:noise -> ?protocol:protocol -> Dls.Platform.t -> plan -> float

(** {1 Port-operation plans} *)

(** One master-port operation, in port order. *)
type multi_op = {
  op_load : int;  (** workload load index ([0] outside multi-load batches) *)
  op_worker : int;  (** platform worker index *)
  op_kind : kind;
  op_amount : float;  (** chunk size, load units *)
  op_release : float;  (** sends may not start earlier; [0.] for returns *)
  op_comm : float;  (** nominal transfer duration *)
  op_comp : float;  (** nominal compute duration; [0.] for returns *)
}

and kind = Op_send | Op_return

type multi_plan = { ops : multi_op list  (** in the port's activity order *) }

(** [ops_of_plan platform plan] lists a single-round plan's operations:
    the sends of the loaded workers in [sigma1] order, then their
    returns in [sigma2] order. *)
val ops_of_plan : Dls.Platform.t -> plan -> multi_plan

(** [plan_of_multiround s] lists a multi-round LP solution's chunks
    (zero-size chunks are dropped): every send in round order, then the
    returns in the same order, the [j]-th return of a worker carrying
    its [j]-th chunk.  Without noise the makespan equals the LP horizon.
    @raise Dls.Errors.Error when the solution uses latencies — the
    simulator implements the linear cost model. *)
val plan_of_multiround : Dls.Multiround.solved -> multi_plan

(** [plan_of_batch b] linearizes a batch LP solution into its port
    operation sequence (zero-size chunks are dropped; the LP's event
    dates induce the order). *)
val plan_of_batch : Dls.Steady_state.batch -> multi_plan

(** [execute_multi ?noise platform plan] runs an operation list in its
    order, each operation as early as the port, its release and (for a
    return) its chunk's computation allow.  Without noise a batch
    plan's makespan equals the batch LP's: the earliest schedule
    compatible with the port order is componentwise minimal, and the LP
    already minimizes over that set.
    @raise Dls.Errors.Error on an operation naming a worker outside the
    platform, a negative/NaN/infinite amount or duration, or a return
    without a sent chunk. *)
val execute_multi : ?noise:noise -> Dls.Platform.t -> multi_plan -> Trace.t

(** {1 The executor} *)

(** [run ?start ?protocol ~finish platform plan] is the one executor
    behind every entry point: the port is free from [start] (default
    [0.]), and [finish op phase t] is the completion date of [op]'s
    [phase] ([Send], [Compute] of a sent chunk, or [Return]) started at
    [t].  [None] means the phase never completes: the chunk's result is
    lost and the master skips its return at once, without holding the
    port.  The plan is validated first, with the errors of
    {!execute_multi}. *)
val run :
  ?start:float ->
  ?protocol:protocol ->
  finish:(multi_op -> Trace.kind -> float -> float option) ->
  Dls.Platform.t ->
  multi_plan ->
  (Trace.t, Dls.Errors.t) result
