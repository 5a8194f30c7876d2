(** Execution of a master/worker campaign on a star platform under the
    one-port model, in floats.

    Every entry point below — single-round, multi-round and multi-load —
    is the float instance of {!Dls.Port_walk}: one pass over the
    master's port operations, each as early as the port, its release
    and (for a return) its chunk's computation allow.  Per-operation
    noise hooks model the gap between the linear cost model and a real
    cluster.  Execution under faults is the exact instance ({!Faults}). *)

type noise = {
  comm : worker:int -> float -> float;
      (** maps a nominal transfer duration to an observed one *)
  comp : worker:int -> float -> float;  (** same, for computations *)
}

(** [no_noise] is the identity: the simulation reproduces the linear
    model exactly. *)
val no_noise : noise

(** Master decision policy ({!Dls.Port_walk.protocol}): [Sends_first]
    is the paper's; [Eager_returns] takes a return before the next send
    when its computation has already ended. *)
type protocol = Dls.Port_walk.protocol = Sends_first | Eager_returns

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

and kind = Dls.Port_walk.direction = Op_send | Op_return

type multi_plan = { ops : multi_op list  (** in the port's activity order *) }

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
