(** Arbitrary-precision signed integers, built on {!Natural}.

    Values in the native range are native: every [v] with
    [|v| <= max_int] is held as an OCaml [int], and only larger
    magnitudes (and [min_int], whose negation overflows) as a sign and a
    {!Natural.t}.  The form is canonical, so equal values are also
    structurally equal.  Arithmetic on native values is overflow-checked
    and falls back to {!Natural} only when a result does not fit; a
    result that fits again comes back native.  The exact LP solver's
    operands are mostly a few dozen bits, so most operations never
    touch a limb array. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t

(** {1 Construction and conversion} *)

val of_int : int -> t
val to_int_opt : t -> int option
val to_float : t -> float

(** [of_natural n] embeds a natural number. *)
val of_natural : Natural.t -> t

(** [make sign mag] builds [sign * mag]; the sign of a zero magnitude is
    forced to 0. [sign] must be -1, 0 or 1. *)
val make : int -> Natural.t -> t

(** [of_string s] parses an optionally signed decimal numeral. *)
val of_string : string -> t

val to_string : t -> string

(** {1 Inspection} *)

(** [sign a] is -1, 0 or 1. *)
val sign : t -> int

(** [magnitude a] is [|a|] as a natural number. *)
val magnitude : t -> Natural.t

val is_zero : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is truncated division: the quotient rounds toward zero
    and the remainder has the sign of [a] (OCaml's [(/)] / [(mod)]
    convention).
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** [divexact a b] is [a / b] for a [b] known to divide [a]; the result
    is unspecified when it does not.
    @raise Division_by_zero if [b] is zero. *)
val divexact : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor of [|a|], [|b|]. *)
val gcd : t -> t -> Natural.t

(** [gcd_integer a b] is [gcd a b] as an integer, without leaving the
    native range when both operands are in it. *)
val gcd_integer : t -> t -> t

val pow : t -> int -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
