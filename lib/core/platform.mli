(** Star-shaped master/worker platforms with the linear cost model.

    A platform is a master [P0] (no processing capability, as in the
    paper) plus [p] workers.  Worker [Pi] is described by three positive
    rationals: sending [X] load units from the master to [Pi] takes
    [X.ci] time units, processing them takes [X.wi], and returning the
    results takes [X.di].  A {e bus} is a star whose links are all
    identical ([ci = c], [di = d]).

    The paper's analysis assumes a uniform return ratio [di = z.ci];
    {!z_ratio} detects it. *)

module Q = Numeric.Rational

type worker = private {
  name : string;
  c : Q.t;  (** forward communication time per load unit *)
  w : Q.t;  (** computation time per load unit *)
  d : Q.t;  (** return communication time per load unit *)
}

type t = private { workers : worker array }

(** [worker ?name ~c ~w ~d ()] builds a worker description.
    @raise Invalid_argument unless [c > 0], [w > 0] and [d >= 0]. *)
val worker : ?name:string -> c:Q.t -> w:Q.t -> d:Q.t -> unit -> worker

(** [make workers] builds a platform; [Error (Invalid_scenario _)] when
    [workers] is empty. *)
val make : worker list -> (t, Errors.t) result

(** [make_exn workers] is {!make}. @raise Errors.Error accordingly. *)
val make_exn : worker list -> t

(** [bus ~c ~d ws] builds a bus platform: uniform link costs, per-worker
    compute costs [ws]. *)
val bus : c:Q.t -> d:Q.t -> Q.t list -> t

(** [with_return_ratio ~z specs] builds a star from [(c, w)] pairs with
    [d = z*c]. *)
val with_return_ratio : z:Q.t -> (Q.t * Q.t) list -> t

val size : t -> int
val get : t -> int -> worker

(** [z_ratio p] is [Some z] when every worker satisfies [d = z*c]. *)
val z_ratio : t -> Q.t option

(** [is_bus p] holds when all links are identical. *)
val is_bus : t -> bool

(** [scale_comm k p] multiplies every [c] and [d] by [k] (k > 0);
    [scale_comp k p] multiplies every [w].  Speeding a worker up by a
    factor [f] is scaling by [1/f]. *)
val scale_comm : Q.t -> t -> t

val scale_comp : Q.t -> t -> t

(** [restrict p keep] is the sub-platform with the workers whose indices
    are listed in [keep], in that order. *)
val restrict : t -> int array -> t

(** [sorted_indices_by p f] is the worker indices sorted by [f] in
    non-decreasing order, stable w.r.t. the original order. *)
val sorted_indices_by : t -> (worker -> Q.t) -> int array

(** {2 Text form}

    The compact spec [c:w:d,...] — e.g. [1:1:1/2,1/2:2:1/4] — used by
    the wire protocol and the CLI's [--platform]; blanks around fields
    are allowed.  {!Workload.of_spec} and {!Delta.of_spec} follow the
    same conventions. *)

(** [of_spec ~line ~col s] parses the compact form; error positions are
    relative to [col], the column where the spec starts, and point at
    the offending field.  Workers are named [P1..Pn].  Never raises. *)
val of_spec :
  ?file:string -> line:int -> col:int -> string -> (t, Errors.t) result

(** [to_spec p] renders the canonical spec: {!of_spec} inverts it, up to
    worker names. *)
val to_spec : t -> string

val pp : Format.formatter -> t -> unit
