(** Exact arbitrary-precision rational numbers.

    Values are kept normalized: the denominator is strictly positive and
    coprime with the numerator; zero is represented as [0/1].  This is
    the scalar type of the whole scheduling library — platform
    parameters, linear programs and schedules are all exact.

    {!add} and {!mul} keep operands small with Henrici's reduced forms
    (Knuth, TAOCP vol. 2, 4.5.1): [a/b + c/d] first cancels
    [g = gcd(b, d)] and then only [gcd(t, g)] from the numerator [t];
    [a/b * c/d] cancels [gcd(a, d)] and [gcd(c, b)] before multiplying.
    Neither takes the gcd of a full cross product. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t
val half : t

(** {1 Construction and conversion} *)

val of_int : int -> t

(** [of_ints num den] is the fraction [num/den].
    @raise Division_by_zero if [den = 0]. *)
val of_ints : int -> int -> t

(** [make num den] builds and normalizes [num/den] from big integers.
    @raise Division_by_zero if [den] is zero. *)
val make : Integer.t -> Integer.t -> t

val of_integer : Integer.t -> t

(** [of_float f] is the {e exact} rational value of the float [f]
    (denominator a power of two).
    @raise Invalid_argument on NaN or infinities. *)
val of_float : float -> t

val to_float : t -> float

(** [of_string s] parses ["p/q"], a plain integer, or a decimal numeral
    with optional fraction and exponent (e.g. ["-1.25e-3"]).  The
    exponent is at most 1000 in magnitude, so a short numeral cannot
    demand a huge power of ten.
    @raise Invalid_argument on malformed input or a larger exponent.
    @raise Division_by_zero on ["p/0"]. *)
val of_string : string -> t

(** [to_string a] prints ["p/q"], or ["p"] when the denominator is 1. *)
val to_string : t -> string

(** {1 Inspection} *)

val num : t -> Integer.t
val den : t -> Integer.t
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero if the divisor is zero. *)
val div : t -> t -> t

(** [inv a] is [1/a]. @raise Division_by_zero if [a] is zero. *)
val inv : t -> t

(** [pow a k] for any integer [k] (negative powers invert;
    @raise Division_by_zero on [pow zero k] with [k < 0]). *)
val pow : t -> int -> t

(** [floor a] is the largest integer [<= a]. *)
val floor : t -> Integer.t

(** [ceil a] is the smallest integer [>= a]. *)
val ceil : t -> Integer.t

(** [floor_int a] / [ceil_int a]: same, as OCaml ints.
    @raise Invalid_argument when the result does not fit. *)
val floor_int : t -> int

val ceil_int : t -> int

(** {1 Aggregates} *)

val sum : t list -> t
val sum_array : t array -> t

(** [common_denominator a] is [(v, l)] with [a.(i) = v.(i) / l] for
    every [i]: [l > 0] is the lcm of the denominators ([1] on an empty
    array).  Exact checks then run on integers, one gcd per entry. *)
val common_denominator : t array -> Integer.t array * Integer.t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

(** Infix operators, meant to be opened locally:
    [Rational.Infix.(a */ b +/ c)]. *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
  val ( =/ ) : t -> t -> bool
  val ( <>/ ) : t -> t -> bool
  val ( </ ) : t -> t -> bool
  val ( <=/ ) : t -> t -> bool
  val ( >/ ) : t -> t -> bool
  val ( >=/ ) : t -> t -> bool
end
