(** Multi-load workloads: several divisible loads sharing one platform.

    The paper schedules a single load; the related work (Gallet, Robert,
    Vivien; Wu, Cao, Robertazzi) and the service daemon both deal in
    {e streams} of loads.  A workload is an ordered list of loads, each
    with its own size, release date, and optionally its own return ratio
    [z] ([d_i = z * c_i] on every worker, overriding the platform's own
    return costs for that load — result sizes differ per application,
    link speeds do not).

    Workloads feed the two solution modes of {!Steady_state}: the
    periodic throughput LP (one mix repeated forever) and the finite
    batch LP (a concrete batch with release dates). *)

module Q = Numeric.Rational

type load = {
  name : string;
  size : Q.t;  (** load units to process, [> 0] *)
  release : Q.t;  (** earliest date the master may start sending, [>= 0] *)
  z : Q.t option;
      (** per-load return ratio: [Some z] replaces every worker's return
          cost by [z * c_i] for this load ([z >= 0]); [None] keeps the
          platform's [d] *)
}

type t = private { loads : load array }

(** [load ?name ?release ?z ~size ()] builds one load description
    (defaults: release 0, platform return costs).
    @raise Invalid_argument unless [size > 0], [release >= 0] and
    [z >= 0] when given. *)
val load : ?name:string -> ?release:Q.t -> ?z:Q.t -> size:Q.t -> unit -> load

(** [make loads] builds a workload; [Error (Invalid_scenario _)] when
    [loads] is empty. *)
val make : load list -> (t, Errors.t) result

(** [make_exn loads] is {!make}. @raise Errors.Error accordingly. *)
val make_exn : load list -> t

val size : t -> int
val get : t -> int -> load

(** [total_size w] is the summed load sizes. *)
val total_size : t -> Q.t

(** [repeat h w] concatenates [h] copies of the mix, preserving each
    load's release and [z] — the long-horizon batches the differential
    fuzzer feeds to the batch LP to squeeze it against the steady-state
    period.  @raise Invalid_argument when [h < 1]. *)
val repeat : int -> t -> t

(** [return_cost w k worker] is the per-unit return cost of load [k] on
    [worker]: [z * c] under an override, the worker's [d] otherwise. *)
val return_cost : t -> int -> Platform.worker -> Q.t

(** [induced_platform w k p] is [p] with every worker's return cost
    replaced by load [k]'s: the single-load platform on which load [k]
    alone would be scheduled. *)
val induced_platform : t -> int -> Platform.t -> Platform.t

(** {2 Text form}

    The compact spec mirrors the platform's [c:w:d] form:
    [size:release\[:z\],...] — e.g. [2:0,1:1/2:3] is a 2-unit load
    released at 0 plus a 1-unit load released at 1/2 with return ratio
    3. *)

(** [of_spec ~line ~col s] parses the compact form; error positions are
    relative to [col], the column where the spec token starts.  Never
    raises. *)
val of_spec :
  ?file:string -> line:int -> col:int -> string -> (t, Errors.t) result

(** [to_spec w] renders the canonical spec: {!of_spec} inverts it and
    load names are positional ([L1..Ln]). *)
val to_spec : t -> string

(** [key w] is a canonical fingerprint: workloads are structurally equal
    iff their keys are equal. *)
val key : t -> string

val pp : Format.formatter -> t -> unit
