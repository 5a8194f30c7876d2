(* Canonical representation: every value with |v| <= max_int is [Small v];
   [Big] holds only magnitudes >= 2^62 (so [min_int] is [Big]), with
   sign -1 or 1.  Equal values therefore have equal representations, and
   [Small] arithmetic can negate and take absolute values without
   overflow.  Native results are overflow-checked; a result that does not
   fit is computed on [Natural] and demoted back to [Small] when it
   fits. *)
type t = Small of int | Big of { sign : int; mag : Natural.t }

let two62 = Natural.shift_left Natural.one 62

(* [sign * mag] in canonical form; [sign] is -1 or 1. *)
let of_sign_mag sign mag =
  match Natural.to_int_opt mag with
  | Some m -> Small (sign * m)
  | None -> Big { sign; mag }

let make sign mag =
  if sign < -1 || sign > 1 then invalid_arg "Integer.make: sign not in {-1,0,1}";
  if Natural.is_zero mag then Small 0
  else if sign = 0 then invalid_arg "Integer.make: zero sign, non-zero magnitude"
  else of_sign_mag sign mag

let zero = Small 0
let one = Small 1
let minus_one = Small (-1)
let of_natural mag = of_sign_mag 1 mag
let of_int n = if n = min_int then Big { sign = -1; mag = two62 } else Small n

let sign = function Small v -> Int.compare v 0 | Big b -> b.sign
let magnitude = function Small v -> Natural.of_int (Stdlib.abs v) | Big b -> b.mag
let is_zero = function Small v -> v = 0 | Big _ -> false

let neg = function
  | Small v -> Small (-v)
  | Big b -> Big { b with sign = -b.sign }

let abs = function
  | Small v -> Small (Stdlib.abs v)
  | Big b -> Big { b with sign = 1 }

let to_int_opt = function
  | Small v -> Some v
  | Big { sign; mag } ->
    if sign < 0 && Natural.equal mag two62 then Some min_int else None

let to_float = function
  | Small v -> float_of_int v
  | Big { sign; mag } -> float_of_int sign *. Natural.to_float mag

(* A [Big] magnitude exceeds every [Small] one. *)
let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  | Small _, Big b -> -b.sign
  | Big a, Small _ -> a.sign
  | Big a, Big b ->
    if a.sign <> b.sign then Int.compare a.sign b.sign
    else a.sign * Natural.compare a.mag b.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big a, Big b -> a.sign = b.sign && Natural.equal a.mag b.mag
  | _ -> false

let add_big a b =
  let sa = sign a and sb = sign b in
  if sa = 0 then b
  else if sb = 0 then a
  else begin
    let ma = magnitude a and mb = magnitude b in
    if sa = sb then of_sign_mag sa (Natural.add ma mb)
    else begin
      let cmp = Natural.compare ma mb in
      if cmp = 0 then zero
      else if cmp > 0 then of_sign_mag sa (Natural.sub ma mb)
      else of_sign_mag sb (Natural.sub mb ma)
    end
  end

(* A native sum or difference [s] is [Small] unless it wrapped or is
   [min_int]. *)
let add a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x + y in
    if (x lxor s) land (y lxor s) < 0 || s = min_int then add_big a b else Small s
  | _ -> add_big a b

let sub a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x - y in
    if (x lxor y) land (x lxor s) < 0 || s = min_int then add_big a (neg b)
    else Small s
  | _ -> add_big a (neg b)

let mul_big a b =
  let sa = sign a and sb = sign b in
  if sa = 0 || sb = 0 then zero
  else of_sign_mag (sa * sb) (Natural.mul (magnitude a) (magnitude b))

(* Factors below 2^31 in magnitude give a product below 2^62; otherwise
   the product is checked by dividing it back. *)
let mul a b =
  match (a, b) with
  | Small x, Small y ->
    if Stdlib.abs x lor Stdlib.abs y < 1 lsl 31 then Small (x * y)
    else begin
      let p = x * y in
      if x = 0 || (p / x = y && p <> min_int) then Small p else mul_big a b
    end
  | _ -> mul_big a b

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | Small _, Big _ -> (zero, a)
  | Big _, _ ->
    let sa = sign a and sb = sign b in
    let q, r = Natural.divmod (magnitude a) (magnitude b) in
    let quotient = if Natural.is_zero q then zero else of_sign_mag (sa * sb) q in
    let remainder = if Natural.is_zero r then zero else of_sign_mag sa r in
    (quotient, remainder)

(* Only zero is a multiple of a larger magnitude. *)
let divexact a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> Small (x / y)
  | Small _, Big _ -> zero
  | Big _, _ ->
    of_sign_mag (sign a * sign b) (Natural.divexact (magnitude a) (magnitude b))

(* Euclid on non-negative native ints. *)
let rec gcd_small x y = if y = 0 then x else gcd_small y (x mod y)

(* One remainder, taken without a quotient, brings a [Big] and a
   non-zero [Small] operand into the native range. *)
let gcd_integer a b =
  match (a, b) with
  | Small x, Small y -> Small (gcd_small (Stdlib.abs x) (Stdlib.abs y))
  | Small 0, c | c, Small 0 -> abs c
  | Small x, Big c | Big c, Small x ->
    let x = Stdlib.abs x in
    Small (gcd_small x (Natural.rem_int c.mag x))
  | Big a, Big b -> of_natural (Natural.gcd a.mag b.mag)

let gcd a b = magnitude (gcd_integer a b)

let pow a k =
  if k < 0 then invalid_arg "Integer.pow: negative exponent";
  let rec go acc a k =
    if k = 0 then acc
    else if k = 1 then mul acc a
    else go (if k land 1 = 1 then mul acc a else acc) (mul a a) (k lsr 1)
  in
  go one a k

(* Up to 18 decimal digits always fit a native int. *)
let of_unsigned_string s =
  let len = String.length s in
  if len = 0 || len > 18 || not (String.for_all (fun ch -> ch >= '0' && ch <= '9') s)
  then of_natural (Natural.of_string s)
  else begin
    let v = ref 0 in
    String.iter (fun ch -> v := (!v * 10) + Char.code ch - Char.code '0') s;
    Small !v
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Integer.of_string: empty string";
  match s.[0] with
  | '-' -> neg (of_unsigned_string (String.sub s 1 (len - 1)))
  | '+' -> of_unsigned_string (String.sub s 1 (len - 1))
  | _ -> of_unsigned_string s

let to_string = function
  | Small v -> string_of_int v
  | Big { sign; mag } ->
    if sign < 0 then "-" ^ Natural.to_string mag else Natural.to_string mag

let pp fmt a = Format.pp_print_string fmt (to_string a)
