(** Execution traces: the timestamped record of what every processor did
    during a (simulated) run, with the same structure as the paper's
    Figure 9 visualization. *)

type kind = Dls.Port_walk.phase = Send | Compute | Return

type event = {
  worker : int;  (** platform worker index *)
  kind : kind;
  start : float;
  finish : float;
  load : float;  (** load units moved or processed *)
}

type t = private { events : event list; makespan : float }

(** [make events] sorts the events by start date and computes the
    makespan. *)
val make : event list -> t

(** [of_steps ~date ~load steps] is the trace of a walk of the master's
    port ({!Dls.Port_walk}): each date read through [date], each step's
    load through [load] from its data. *)
val of_steps :
  date:('c -> float) -> load:('a -> float) -> ('c, 'a) Dls.Port_walk.step list -> t

(** [of_schedule sched] converts an exact schedule into a float trace
    (e.g. to render it). *)
val of_schedule : Dls.Schedule.t -> t

val workers : t -> int list

(** [events_of t i] lists worker [i]'s events in time order. *)
val events_of : t -> int -> event list

(** Two master transfers claiming the port at once, in time order. *)
type clash = { first : event; second : event }

(** [one_port_violations ?eps t] lists pairs of master transfers
    (sends/returns) overlapping by more than [eps].

    The default [eps = 0] is exact, with explicit boundary semantics:
    {e touching} intervals (one finishing exactly when the next starts)
    are NOT overlapping; only a strict crossing is a violation.  Traces
    derived from rational schedules or from the noise-free simulator
    need no tolerance — pass a positive [eps] only for measured (noisy)
    float traces. *)
val one_port_violations : ?eps:float -> t -> clash list

(** [precedence_violations ?eps t] checks that each worker receives,
    computes, then returns, in that order without overlap.  Workers may
    carry several send/compute/return triples (multi-round and
    multi-load traces): the [j]-th send is matched with the [j]-th
    compute and the [j]-th return in time order, so every chunk must be
    received before it is processed and processed before its results
    leave.  Boundary semantics as in {!one_port_violations}:
    back-to-back phases are valid, [eps] (default [0], exact) only
    forgives noisy input. *)
val precedence_violations : ?eps:float -> t -> string list

(** [is_valid ?eps t] holds when no violations of either kind exist. *)
val is_valid : ?eps:float -> t -> bool

(** [validate_schedule sched] checks the {e rational} schedule with the
    exact validator ({!Check.Validator}) — no floats, no epsilons.
    Prefer this over [is_valid (of_schedule sched)] whenever the exact
    data is available: the float shadow can only lose information. *)
val validate_schedule : Dls.Schedule.t -> (unit, string list) result

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
