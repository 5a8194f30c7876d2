type t = { num : Integer.t; den : Integer.t }
(* Invariant: den > 0, gcd(|num|, den) = 1, zero is 0/1. *)

(* [a / b] where [b] is known to divide [a]. *)
let exact_div a b = if Integer.equal b Integer.one then a else Integer.divexact a b

let make num den =
  if Integer.is_zero den then raise Division_by_zero;
  if Integer.is_zero num then { num = Integer.zero; den = Integer.one }
  else begin
    let num = if Integer.sign den < 0 then Integer.neg num else num in
    let den = Integer.abs den in
    let g = Integer.gcd_integer num den in
    { num = exact_div num g; den = exact_div den g }
  end

let of_integer n = { num = n; den = Integer.one }
let of_int n = of_integer (Integer.of_int n)
let of_ints num den = make (Integer.of_int num) (Integer.of_int den)
let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2
let num a = a.num
let den a = a.den
let sign a = Integer.sign a.num
let is_zero a = Integer.is_zero a.num
let is_integer a = Integer.equal a.den Integer.one
let neg a = { a with num = Integer.neg a.num }
let abs a = { a with num = Integer.abs a.num }

(* Henrici's reduced forms (Knuth, TAOCP vol. 2, 4.5.1): with both
   operands normalised, cancelling the small gcds first leaves the
   result normalised without a gcd of the full products. *)
let add a b =
  let g = Integer.gcd_integer a.den b.den in
  if Integer.equal g Integer.one then
    (* gcd(ad + bc, bd) = 1 when gcd(b, d) = 1. *)
    {
      num = Integer.add (Integer.mul a.num b.den) (Integer.mul b.num a.den);
      den = Integer.mul a.den b.den;
    }
  else begin
    let bg = exact_div a.den g in
    let t = Integer.add (Integer.mul a.num (exact_div b.den g)) (Integer.mul b.num bg) in
    if Integer.is_zero t then zero
    else begin
      (* Only a factor of g can divide both t and the denominator. *)
      let g2 = Integer.gcd_integer t g in
      { num = exact_div t g2; den = Integer.mul bg (exact_div b.den g2) }
    end
  end

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let g1 = Integer.gcd_integer a.num b.den in
    let g2 = Integer.gcd_integer b.num a.den in
    {
      num = Integer.mul (exact_div a.num g1) (exact_div b.num g2);
      den = Integer.mul (exact_div a.den g2) (exact_div b.den g1);
    }
  end

let inv a =
  if is_zero a then raise Division_by_zero
  else if Integer.sign a.num < 0 then { num = Integer.neg a.den; den = Integer.neg a.num }
  else { num = a.den; den = a.num }

let div a b = mul a (inv b)

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Int.compare sa sb
  else if Integer.equal a.den b.den then Integer.compare a.num b.num
  else Integer.compare (Integer.mul a.num b.den) (Integer.mul b.num a.den)

let equal a b = Integer.equal a.num b.num && Integer.equal a.den b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let pow a k =
  if k >= 0 then { num = Integer.pow a.num k; den = Integer.pow a.den k }
  else inv { num = Integer.pow a.num (-k); den = Integer.pow a.den (-k) }

let floor a =
  let q, r = Integer.divmod a.num a.den in
  (* Truncated division rounds toward zero; fix up for negatives. *)
  if Integer.sign r < 0 then Integer.sub q Integer.one else q

let ceil a = Integer.neg (floor (neg a))

let to_int_exn name n =
  match Integer.to_int_opt n with
  | Some v -> v
  | None -> invalid_arg (name ^ ": result exceeds native int range")

let floor_int a = to_int_exn "Rational.floor_int" (floor a)
let ceil_int a = to_int_exn "Rational.ceil_int" (ceil a)
let to_float a = Integer.to_float a.num /. Integer.to_float a.den

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float: not finite"
  else if f = 0.0 then zero
  else begin
    let mant, exp = Float.frexp f in
    (* mant * 2^53 is an exact integer for any finite float. *)
    let scaled = Int64.to_int (Int64.of_float (Float.ldexp mant 53)) in
    let num = Integer.of_int scaled in
    let e = exp - 53 in
    if e >= 0 then of_integer (Integer.mul num (Integer.pow (Integer.of_int 2) e))
    else make num (Integer.pow (Integer.of_int 2) (-e))
  end

let sum l = List.fold_left add zero l
let sum_array a = Array.fold_left add zero a

let common_denominator a =
  let l =
    Array.fold_left
      (fun acc x -> Integer.mul acc (exact_div x.den (Integer.gcd_integer acc x.den)))
      Integer.one a
  in
  (Array.map (fun x -> Integer.mul x.num (exact_div l x.den)) a, l)

let to_string a =
  if is_integer a then Integer.to_string a.num
  else Integer.to_string a.num ^ "/" ^ Integer.to_string a.den

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* A short numeral must not ask for an arbitrarily large power of ten:
   "1e2000000" is nine bytes and a 6.6-million-bit numerator. *)
let max_decimal_exponent = 1000

(* [sign] [digits], at most [max_decimal_exponent] in magnitude. *)
let exponent_of_string e =
  let len = String.length e in
  let sgn, pos =
    if len > 0 && e.[0] = '-' then (-1, 1) else if len > 0 && e.[0] = '+' then (1, 1) else (1, 0)
  in
  if pos = len then invalid_arg "Rational.of_string: exponent without digits";
  let v = ref 0 in
  for i = pos to len - 1 do
    if e.[i] < '0' || e.[i] > '9' then invalid_arg "Rational.of_string: bad exponent";
    v := (!v * 10) + Char.code e.[i] - Char.code '0';
    if !v > max_decimal_exponent then
      invalid_arg
        (Printf.sprintf "Rational.of_string: exponent beyond +-%d" max_decimal_exponent)
  done;
  sgn * !v

let of_string_decimal s =
  (* [sign] [digits] [. digits] [e|E [sign] digits] *)
  let len = String.length s in
  if len = 0 then invalid_arg "Rational.of_string: empty string";
  let sgn, pos = match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0) in
  let mantissa_end =
    match String.index_from_opt s pos 'e' with
    | Some i -> i
    | None -> ( match String.index_from_opt s pos 'E' with Some i -> i | None -> len)
  in
  let mantissa = String.sub s pos (mantissa_end - pos) in
  let exponent =
    if mantissa_end = len then 0
    else exponent_of_string (String.sub s (mantissa_end + 1) (len - mantissa_end - 1))
  in
  let int_part, frac_part =
    match String.index_opt mantissa '.' with
    | None -> (mantissa, "")
    | Some i ->
      (String.sub mantissa 0 i, String.sub mantissa (i + 1) (String.length mantissa - i - 1))
  in
  let digits = int_part ^ frac_part in
  if digits = "" then invalid_arg "Rational.of_string: no digits";
  let n = Integer.of_natural (Natural.of_string digits) in
  let n = if sgn < 0 then Integer.neg n else n in
  let e = exponent - String.length frac_part in
  let ten = Integer.of_int 10 in
  if e >= 0 then of_integer (Integer.mul n (Integer.pow ten e))
  else make n (Integer.pow ten (-e))

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let p = Integer.of_string (String.sub s 0 i) in
    let q = Integer.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make p q
  | None -> of_string_decimal s

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
  let ( =/ ) = equal
  let ( <>/ ) a b = not (equal a b)
  let ( </ ) a b = compare a b < 0
  let ( <=/ ) a b = compare a b <= 0
  let ( >/ ) a b = compare a b > 0
  let ( >=/ ) a b = compare a b >= 0
end
