(** Arbitrary-precision natural numbers (non-negative integers).

    Numbers are stored as little-endian arrays of 30-bit limbs.  All
    operations are purely functional; the underlying arrays are never
    shared with the caller in a mutable way.  This module is the base of
    the exact rational arithmetic used by the simplex solver: schedules
    computed by the library are exact, with no floating-point drift. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val ten : t

(** {1 Construction and conversion} *)

(** [of_int n] converts a non-negative OCaml integer.
    @raise Invalid_argument if [n < 0]. *)
val of_int : int -> t

(** [to_int_opt a] is [Some n] when [a] fits in an OCaml [int]. *)
val to_int_opt : t -> int option

(** [to_float a] is the nearest-ish float; loses precision beyond 53 bits
    and overflows to [infinity] for huge values. *)
val to_float : t -> float

(** [of_string s] parses a decimal numeral (digits only, optional leading
    zeros, ['_'] separators allowed).
    @raise Invalid_argument on empty or non-numeric input. *)
val of_string : string -> t

(** [to_string a] is the decimal representation of [a]. *)
val to_string : t -> string

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t

(** [sub a b] is [a - b].
    @raise Invalid_argument if [b > a]. *)
val sub : t -> t -> t

(** [mul a b] multiplies: schoolbook below 512 limbs, Karatsuba from
    512 limbs in both operands. *)
val mul : t -> t -> t

(** [mul_schoolbook a b] is the O(n²) reference multiplication, exposed
    so the test suite can cross-check {!mul}'s Karatsuba path. *)
val mul_schoolbook : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)] (Euclidean).
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** [divexact a b] is [a / b] for a [b] known to divide [a]; the result
    is unspecified when it does not.  It builds the quotient from the
    low limbs up (Jebelean's exact division), with one allocation for an
    odd [b].
    @raise Division_by_zero if [b] is zero. *)
val divexact : t -> t -> t

(** [rem_int a m] is [a mod m] for a native [m > 0], computed without
    allocating.
    @raise Invalid_argument if [m <= 0]. *)
val rem_int : t -> int -> int

(** [gcd a b] is the greatest common divisor; [gcd 0 b = b].

    Lehmer's algorithm (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L): each
    round reads a 60-bit leading window of both operands and runs
    Euclid's quotient steps on native ints while Knuth's two-quotient
    test shows they are the operands' own quotients, with signed
    cofactors kept within 2{^30}, so one limb pass of [x·a + y·b]
    stays below 2{^62}.  A round with no such step takes one {!divmod}
    step.  Once the smaller operand fits an [int], native Euclid
    finishes. *)
val gcd : t -> t -> t

(** [pow a k] is [a]{^ [k]} for [k >= 0]. *)
val pow : t -> int -> t

(** {1 Bit operations} *)

(** [shift_left a k] multiplies [a] by 2{^ [k]} ([k >= 0]). *)
val shift_left : t -> int -> t

(** [shift_right a k] divides [a] by 2{^ [k]}, rounding down. *)
val shift_right : t -> int -> t

(** [num_bits a] is the position of the highest set bit plus one
    (0 for zero). *)
val num_bits : t -> int

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
