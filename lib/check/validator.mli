(** Exact schedule validation — every paper invariant, no epsilons.

    The solver stack is exact-rational end to end, so its output can be
    held to exact standards: this module re-derives every invariant of a
    {!Dls.Schedule.t} from scratch, with {!Numeric.Rational} comparisons
    only.  It shares no code with the schedule builder or the simplex
    solver, so it can serve as an independent oracle for differential
    testing ({!Fuzz}) and as the regression gate for every future
    performance PR.

    Invariants checked, mirroring Section 2 of the paper:

    - every load is strictly positive (zero-load workers must be omitted);
    - each phase lasts exactly [alpha * c], [alpha * w], [alpha * d];
    - phases are well-formed ([start <= finish], nothing before time 0);
    - precedence per worker: the computation starts no earlier than the
      send completes, the return starts no earlier than the computation
      completes (results are returned only after the {e whole}
      computation, as the paper requires);
    - one-port: no two master transfers (sends and returns together)
      overlap.  Boundary semantics are exact and explicit: {e touching}
      intervals — one finishing exactly when the next starts — do NOT
      overlap;
    - every activity fits in [[0, horizon]] (with [of_solved] schedules,
      [horizon = T = 1], the paper's deadline);
    - no worker appears twice. *)

module Q = Numeric.Rational

type violation =
  | Nonpositive_load of { worker : int }
  | Duplicate_worker of { worker : int }
  | Bad_phase of { worker : int; phase : string }
      (** [finish < start] or [start < 0] *)
  | Duration_mismatch of {
      worker : int;
      phase : string;
      expected : Q.t;
      actual : Q.t;
    }  (** phase length differs from [alpha * {c,w,d}] *)
  | Compute_before_receive of { worker : int }
  | Return_before_compute of { worker : int }
  | Outside_horizon of { worker : int; finish : Q.t; horizon : Q.t }
  | One_port_overlap of {
      worker1 : int;
      phase1 : string;
      worker2 : int;
      phase2 : string;
    }  (** two master transfers strictly overlap *)
  | Load_sum_mismatch of { claimed : Q.t; actual : Q.t }
      (** the claimed throughput is not the sum of the validated loads *)
  | Recovery_misses_deadline of { finish : Q.t; deadline : Q.t }
      (** the spliced recovery schedule ends after the campaign deadline *)
  | Recovery_accounting of { msg : string }
      (** banked/residual/planned/unscheduled bookkeeping inconsistent;
          also reused for steady-state resource-accounting mismatches *)
  | In_load of { load : string; violation : violation }
      (** a single-load invariant violated inside one load of a batch *)
  | Batch_size_mismatch of { load : string; expected : Q.t; actual : Q.t }
      (** a load's chunks do not sum to its size *)
  | Release_violated of {
      load : string;
      worker : int;
      start : Q.t;
      release : Q.t;
    }  (** data leaves the master before the load's release date *)
  | Worker_overlap of { worker : int; load1 : string; load2 : string }
      (** a worker computes two chunks at once (across loads) *)
  | Steady_negative_alloc of { load : string; worker : int }
  | Steady_overload of { resource : string; busy : Q.t; period : Q.t }
      (** the port or a worker is busy longer than the claimed period *)
  | Steady_slack of { period : Q.t; busy : Q.t }
      (** no resource is tight: the period cannot be minimal *)

val violation_to_string : Dls.Platform.t -> violation -> string

(** [validate sched] checks every invariant above against
    [sched.horizon].  Returns all violations, in a deterministic
    order. *)
val validate : Dls.Schedule.t -> (unit, violation list) result

(** [validate_solved sol] realizes the LP solution as a schedule
    ({!Dls.Schedule.of_solved}), validates it against the paper's
    deadline [T = 1], and additionally checks that the claimed [rho]
    equals the sum of the validated [alpha]s. *)
val validate_solved : Dls.Lp_model.solved -> (unit, violation list) result

(** [validate_recovery ~deadline r] checks a re-planning recovery: the
    spliced schedule validates {e exactly} against the degraded platform
    it embeds ({!validate}), carries exactly [r.planned] load, finishes
    by [deadline] (its dates being relative to the splice point [r.at]),
    and the [banked]/[residual]/[planned]/[unscheduled] accounting is
    consistent. *)
val validate_recovery :
  deadline:Q.t -> Dls.Replan.recovery -> (unit, violation list) result

(** [validate_steady s] checks a steady-state solution: non-negative
    allocations, per-load row sums equal to the load sizes, port and
    per-worker busy times re-derived from the allocation and bounded by
    the period, and at least one resource tight (otherwise the period
    is not minimal). *)
val validate_steady :
  Dls.Steady_state.solved -> (unit, violation list) result

(** [validate_batch b] checks a multi-load batch end to end: per-load
    chunk accounting, every single-load invariant of each load's
    realized schedule on its induced platform ({!validate}, reported
    under {!In_load}), release dates, the {e global} one-port property
    across all loads' transfers, and per-worker compute exclusivity
    across loads. *)
val validate_batch : Dls.Steady_state.batch -> (unit, violation list) result

(** [errors_of_result platform r] renders a validation result as
    strings, for reporting. *)
val errors_of_result :
  Dls.Platform.t -> (unit, violation list) result -> (unit, string list) result
