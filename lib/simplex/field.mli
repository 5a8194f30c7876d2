(** The scalar interface the simplex core is generic over.

    Two instances ship with the library: IEEE floats with an
    epsilon-tolerant sign, behind {!Float_solver}, and exact rationals,
    which the test suite runs as the reference of the fraction-free
    exact {!Solver}.  See {!Solver_core.Make}. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val minus_one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val inv : t -> t

  (** [sign x] decides pivot eligibility; a float instance applies a
      tolerance here, which is the single point where robustness
      enters. *)
  val sign : t -> int

  val compare : t -> t -> int
  val of_rational : Numeric.Rational.t -> t
  val to_float : t -> float
  val to_string : t -> string
end

(** Exact rationals: [sign] is exact, the solver is exact. *)
module Rational : S with type t = Numeric.Rational.t

(** IEEE doubles with [sign] tolerance [1e-9]. *)
module Float : S with type t = float
