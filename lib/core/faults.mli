(** Deterministic fault injection for star platforms.

    A {e fault plan} is a finite set of timed perturbations of the
    platform — the misbehaving-cluster counterpart of the paper's
    closed-world LP (2), whose bounds are all tight and therefore blow
    up under any runtime degradation.  Plans are exact (rational
    factors and dates), composable, and generated from a seeded
    {!Numeric.Prng} stream so every experiment is reproducible and
    independent of [--jobs].

    Semantics, per fault kind:
    - [Slowdown]: from [from_] on, the worker computes [factor] times
      slower (factors of several slowdowns compound);
    - [Degrade]: from [from_] on, the worker's link is [factor] times
      slower in both directions ([c] and [d] stretch together, which
      preserves the paper's return ratio [z]);
    - [Crash]: from [at] on, the worker never finishes a computation and
      never returns results.  A send {e towards} a crashed worker still
      occupies the one-port master at nominal speed (the master pushes
      blindly);
    - [Stall]: transfers to/from the worker freeze during
      [[at, at + duration)] and resume afterwards.

    {!finish_time} integrates an activity through the induced
    piecewise-constant rate profile, exactly. *)

module Q = Numeric.Rational

type fault =
  | Slowdown of { worker : int; factor : Q.t; from_ : Q.t }
  | Degrade of { worker : int; factor : Q.t; from_ : Q.t }
  | Crash of { worker : int; at : Q.t }
  | Stall of { worker : int; at : Q.t; duration : Q.t }

(** A validated plan: onset-sorted faults. *)
type plan = private fault list

val onset : fault -> Q.t
val fault_to_string : fault -> string

(** [make faults] validates (worker indices non-negative, onsets
    non-negative, factors [>= 1], stall durations positive) and sorts by
    onset. *)
val make : fault list -> (plan, Errors.t) result

(** @raise Errors.Error on an invalid fault list. *)
val make_exn : fault list -> plan

val empty : plan
val is_empty : plan -> bool
val faults : plan -> fault list

(** [first_onset p] is the earliest fault time — the re-planner's splice
    point. *)
val first_onset : plan -> Q.t option

(** [validate_for platform p] additionally checks every worker index
    against the platform size. *)
val validate_for : Platform.t -> plan -> (unit, Errors.t) result

(** [crashed p] lists workers hit by a [Crash], sorted. *)
val crashed : plan -> int list

(** [faulty_workers p] lists workers hit by {e any} fault, sorted. *)
val faulty_workers : plan -> int list

(** [survivors platform p] lists the non-crashed worker indices, in
    platform order. *)
val survivors : Platform.t -> plan -> int list

(** [degraded_platform platform p] applies every slowdown/degradation
    factor in full, whatever its onset: the steady-state worst-case
    platform that recovery schedules are planned on and validated
    against.  Crashes and stalls do not change the parameters. *)
val degraded_platform : Platform.t -> plan -> Platform.t

(** One master/worker activity, for {!finish_time}. *)
type activity = Send_to of int | Compute_on of int | Return_from of int

(** [finish_time platform plan act ~start ~load] is the exact completion
    date of the activity started at [start] moving/processing [load]
    units, integrated through the plan's piecewise rate profile;
    [None] when it never completes (crash).
    @raise Invalid_argument on negative [load]. *)
val finish_time :
  Platform.t -> plan -> activity -> start:Q.t -> load:Q.t -> Q.t option

(** {1 Text format}

    One fault per line — [slowdown worker factor from], [degrade worker
    factor from], [crash worker at], [stall worker at duration] — with
    [#] comments and blank lines ignored:

    {v
    # dls faults v1
    slowdown 2 3/2 1/4
    crash 0 5/8
    v} *)

val to_string : plan -> string

(** [of_string s] parses a plan; malformed input yields a typed
    {!Errors.Parse_error} with 1-based line/column, never an
    exception. *)
val of_string : string -> (plan, Errors.t) result

(** [write path p] writes the plan.
    @raise Errors.Error ([Io_error]) when the file cannot be written. *)
val write : string -> plan -> unit

val read : string -> (plan, Errors.t) result

(** [gen rng ~workers ~deadline ~severity] draws a random plan of 1-3
    faults with onsets on a 16th-of-deadline grid.  [severity] in
    [[0, 1]] scales both the number of faults and the factor
    amplitudes; crashes always leave at least one worker alive.  The
    result depends only on the [rng] state, so seeding one generator
    per case index makes whole campaigns reproducible and
    jobs-invariant. *)
val gen :
  Numeric.Prng.t -> workers:int -> deadline:Q.t -> severity:float -> plan
