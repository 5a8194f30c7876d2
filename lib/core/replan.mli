(** Online re-planning: splice a recovery schedule when the platform
    misbehaves.

    The model: the master executes the optimal FIFO schedule; a
    monitoring layer detects the first fault at its onset [t0] and
    reports the whole {!Faults.plan} (perfect detection).  Work whose
    result message had already come back by [t0] is {e banked};
    in-flight transfers and computations are cancelled and their load
    folded into the {e residual}, which is re-solved as a fresh
    divisible-load instance — LP (2) of the paper — on the degraded
    surviving platform ({!Faults.degraded_platform}), with the recovery
    schedule dispatched from [t0].

    Every candidate recovery, and the do-nothing continuation, is then
    {e replayed} exactly (rational arithmetic) under the full fault plan,
    and {!respond} keeps the best by completed-load-by-deadline.  The
    baseline is always a candidate, so the decision is never worse than
    not recovering — a property {!Check.Fuzz} re-verifies over random
    fault plans. *)

module Q = Numeric.Rational

(** {1 Exact replay} *)

type source = Original | Recovery

type completion = {
  worker : int;
  load : Q.t;
  source : source;
  finish : Q.t option;  (** return-message completion; [None]: lost *)
}

type report = {
  deadline : Q.t;
  total : Q.t;  (** load the original schedule enrolled *)
  done_by_deadline : Q.t;  (** load fully returned by [deadline] *)
  done_eventually : Q.t;  (** load fully returned, ever *)
  makespan : Q.t option;  (** last return; [None] if some load is lost *)
  completions : completion list;
}

(** [lateness ~deadline finish] is how far past the deadline a return
    landed ([Some 0] when on time, [None] when it never landed). *)
val lateness : deadline:Q.t -> Q.t option -> Q.t option

(** A dispatchable work assignment: orders, per-platform-index loads,
    dispatch origin. *)
type seq = {
  sigma1 : int array;
  sigma2 : int array;
  loads : Q.t array;
  start : Q.t;
  source : source;
}

(** [seq_of_schedule sched ~start] extracts orders and loads from an
    explicit schedule ([sigma2] by return start date). *)
val seq_of_schedule : ?source:source -> Schedule.t -> start:Q.t -> seq

(** [walk_seq platform plan seq] walks the master's port
    ({!Port_walk}) in exact rationals: the loaded workers, from
    [seq.start], [Sends_first], each phase dated by
    {!Faults.finish_time}; a step's data is its worker's load.  Each
    order names a worker at most once, as {!seq_of_schedule} makes. *)
val walk_seq : Platform.t -> Faults.plan -> seq -> (Q.t, Q.t) Port_walk.step list

(** [replay_seq platform plan seq] lists, for each loaded worker of
    [sigma2] in order, the date {!walk_seq} lands its results, or
    [None] when a fault cuts its send, computation or return, or
    [sigma1] never sent it a chunk. *)
val replay_seq : Platform.t -> Faults.plan -> seq -> completion list

(** [report_of ~deadline ~total completions] aggregates a replay. *)
val report_of : deadline:Q.t -> total:Q.t -> completion list -> report

(** {1 Recovery policies} *)

type policy =
  | Resolve  (** re-solve LP (2) for the residual on all survivors *)
  | Drop_faulty
      (** re-solve on the workers untouched by any fault — write off
          stragglers entirely *)
  | Margin of Q.t
      (** like [Resolve], but size the committed load as if every faulty
          survivor were a further [1 + m] slower (via
          {!Sensitivity.perturb}), leaving slack against deeper
          degradation *)

val policy_to_string : policy -> string

(** Inverse of {!policy_to_string}; also accepts ["drop"] and bare
    ["margin"] (= [margin:1/4]). *)
val policy_of_string : string -> policy option

(** [Resolve; Drop_faulty; Margin 1/4]. *)
val default_policies : policy list

type recovery = {
  at : Q.t;  (** splice point = first fault onset *)
  banked : Q.t;  (** load already returned at [at] *)
  residual : Q.t;
  planned : Q.t;  (** residual load the recovery schedule carries *)
  unscheduled : Q.t;  (** residual beyond the degraded capacity *)
  degraded : Platform.t;  (** platform the schedule validates against *)
  schedule : Schedule.t;  (** dates relative to [at] *)
}

type decision = Keep_original | Recover of recovery

type outcome = {
  plan : Faults.plan;
  deadline : Q.t;
  total : Q.t;
  policy_used : policy option;  (** [None] iff [Keep_original] *)
  decision : decision;
  baseline : report;  (** no-recovery continuation *)
  achieved : report;  (** the chosen execution *)
  candidates : (policy * recovery * report) list;
      (** every recovery tried, with its replay *)
}

(** [respond plan sol ~load] decides how to react to [plan] when
    executing [Schedule.for_load sol ~load] (deadline
    [Lp_model.time_for_load sol ~load]).  Guarantees
    [achieved.done_by_deadline >= baseline.done_by_deadline].
    Errors when the plan references absent workers or [load <= 0]. *)
val respond :
  ?policies:policy list ->
  Faults.plan ->
  Lp_model.solved ->
  load:Q.t ->
  (outcome, Errors.t) result

(** @raise Errors.Error — see {!respond}. *)
val respond_exn :
  ?policies:policy list -> Faults.plan -> Lp_model.solved -> load:Q.t -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
