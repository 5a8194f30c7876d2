(** Linear-program descriptions.

    A problem has [n] decision variables, all implicitly constrained to
    be non-negative, a linear objective, and a list of linear
    constraints with relations [<=], [>=] or [=]. *)

module Q = Numeric.Rational

type relation = Le | Ge | Eq

type constr = {
  coeffs : Q.t array;  (** one coefficient per decision variable *)
  relation : relation;
  rhs : Q.t;
}

type direction = Maximize | Minimize

type t = private {
  direction : direction;
  objective : Q.t array;
  constraints : constr array;
  names : string array;  (** variable names, for diagnostics *)
}

(** [make ?names direction objective constraints] checks that every
    constraint has exactly as many coefficients as the objective.
    @raise Invalid_argument on dimension mismatch. *)
val make :
  ?names:string array -> direction -> Q.t array -> constr list -> t

(** [constr coeffs relation rhs] is a convenience constructor. *)
val constr : Q.t array -> relation -> Q.t -> constr

(** [orient c] is [c] with a non-negative right-hand side: a constraint
    with a negative one is negated, which flips [Le] and [Ge]. *)
val orient : constr -> constr

val num_vars : t -> int
val num_constraints : t -> int

(** [eval_constraint c x] is the left-hand-side value [coeffs . x]. *)
val eval_constraint : constr -> Q.t array -> Q.t

(** [objective_value p x] is [objective . x]. *)
val objective_value : t -> Q.t array -> Q.t

(** [holds c x] tests whether point [x] satisfies constraint [c]. *)
val holds : constr -> Q.t array -> bool

val pp : Format.formatter -> t -> unit
