(* Little-endian limbs in base 2^30, no trailing zero limb; [||] is zero.
   Base 2^30 keeps every intermediate product below 2^62, inside OCaml's
   native 63-bit int range, so no boxed arithmetic is needed anywhere. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let zero : t = [||]
let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* A non-negative int has at most three limbs. *)
let of_int n =
  if n < 0 then invalid_arg "Natural.of_int: negative argument";
  if n = 0 then zero
  else if n < base then [| n |]
  else if n lsr base_bits < base then [| n land mask; n lsr base_bits |]
  else [| n land mask; (n lsr base_bits) land mask; n lsr (2 * base_bits) |]

let one = of_int 1
let two = of_int 2
let ten = of_int 10

let to_int_opt a =
  let l = Array.length a in
  let fits =
    l <= 2 || (l = 3 && a.(2) < 1 lsl (62 - (2 * base_bits)))
  in
  if not fits then None
  else begin
    let v = ref 0 in
    for i = l - 1 downto 0 do
      v := (!v lsl base_bits) lor a.(i)
    done;
    Some !v
  end

let to_float a =
  let v = ref 0.0 in
  let basef = float_of_int base in
  for i = Array.length a - 1 downto 0 do
    v := (!v *. basef) +. float_of_int a.(i)
  done;
  !v

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec scan i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else scan (i - 1)
    in
    scan (la - 1)
  end

let equal a b = compare a b = 0

(* The bit width of a non-negative int, counting up from [w]. *)
let rec int_width n w = if n lsr w = 0 then w else int_width n (w + 1)

let num_bits a =
  let l = Array.length a in
  if l = 0 then 0 else ((l - 1) * base_bits) + int_width a.(l - 1) 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  normalize r

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Natural.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Natural.sub: negative result";
  normalize r

let mul_schoolbook a b =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land mask;
          carry := cur lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = r.(!k) + !carry in
          r.(!k) <- cur land mask;
          carry := cur lsr base_bits;
          incr k
        done
      end
    done;
    normalize r
  end

(* Karatsuba multiplication above this limb count; below it the O(n^2)
   schoolbook loop has better constants (the recursion's temporaries are
   allocation-heavy, so the measured crossover sits high). *)
let karatsuba_threshold = 512

let low_limbs a m = normalize (Array.sub a 0 (min m (Array.length a)))

let high_limbs a m =
  if Array.length a <= m then zero
  else normalize (Array.sub a m (Array.length a - m))

(* [a * B^ (limbs)] without touching individual bits. *)
let shift_limbs a limbs =
  if is_zero a then zero
  else begin
    let r = Array.make (Array.length a + limbs) 0 in
    Array.blit a 0 r limbs (Array.length a);
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if min la lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    (* Karatsuba: split both numbers at m limbs;
       a*b = z2 B^(2m) + z1 B^m + z0 with
       z1 = (a0+a1)(b0+b1) - z0 - z2, always non-negative. *)
    let m = (max la lb + 1) / 2 in
    let a0 = low_limbs a m and a1 = high_limbs a m in
    let b0 = low_limbs b m and b1 = high_limbs b m in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 m)) (shift_limbs z2 (2 * m))
  end

(* [m] must satisfy 0 <= m < base. *)
let mul_small a m =
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur land mask;
      carry := cur lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let add_small a m =
  if m = 0 then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    Array.blit a 0 r 0 la;
    let carry = ref m in
    let i = ref 0 in
    while !carry <> 0 do
      let cur = r.(!i) + !carry in
      r.(!i) <- cur land mask;
      carry := cur lsr base_bits;
      incr i
    done;
    normalize r
  end

(* [m] must satisfy 0 < m < base; returns (quotient, remainder). *)
let divmod_small a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / m;
    rem := cur mod m
  done;
  (normalize q, !rem)

let shift_left a k =
  if k < 0 then invalid_arg "Natural.shift_left: negative shift";
  if k = 0 || is_zero a then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr base_bits)
    done;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Natural.shift_right: negative shift";
  if k = 0 || is_zero a then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let hi = if i + limbs + 1 < la then a.(i + limbs + 1) else 0 in
        r.(i) <- ((a.(i + limbs) lsr bits) lor (hi lsl (base_bits - bits))) land mask
      done;
      normalize r
    end
  end

(* Knuth's Algorithm D; requires [Array.length v0 >= 2] and [a >= v0]. *)
let knuth_d a v0 =
  let n = Array.length v0 in
  let top = v0.(n - 1) in
  let rec leading s =
    if top lsl s land (1 lsl (base_bits - 1)) <> 0 then s else leading (s + 1)
  in
  let s = leading 0 in
  let v = shift_left v0 s in
  assert (Array.length v = n);
  let u0 = shift_left a s in
  let m = Array.length u0 - n in
  let u = Array.make (Array.length u0 + 1) 0 in
  Array.blit u0 0 u 0 (Array.length u0);
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top2 = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top2 / v.(n - 1)) and rhat = ref (top2 mod v.(n - 1)) in
    let adjusting = ref true in
    while !adjusting do
      if
        !qhat >= base
        || !qhat * v.(n - 2) > (!rhat lsl base_bits) lor u.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + v.(n - 1);
        if !rhat >= base then adjusting := false
      end
      else adjusting := false
    done;
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let t = u.(i + j) - (p land mask) - !borrow in
      if t < 0 then begin
        u.(i + j) <- t + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- t;
        borrow := 0
      end
    done;
    let t = u.(j + n) - !carry - !borrow in
    if t < 0 then begin
      (* The estimate was one too large: add the divisor back. *)
      u.(j + n) <- t + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let s2 = u.(i + j) + v.(i) + !carry2 in
        u.(i + j) <- s2 land mask;
        carry2 := s2 lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land mask
    end
    else u.(j + n) <- t;
    q.(j) <- !qhat
  done;
  let r = shift_right (normalize (Array.sub u 0 n)) s in
  (normalize q, r)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, if r = 0 then zero else [| r |])
  end
  else knuth_d a b

(* Jebelean's exact division: with [b] odd, the quotient's limbs come
   from the low end, each [q_i = r_i · b_0^-1 mod B], and only the low
   [la - lb + 1] limbs of the running remainder are ever needed.  Each
   [q_i] is stored in the limb its subtraction clears. *)
let divexact a b =
  if is_zero b then raise Division_by_zero;
  let rec zero_limbs i = if b.(i) = 0 then zero_limbs (i + 1) else i in
  let zl = zero_limbs 0 in
  let rec zero_bits k = if (b.(zl) lsr k) land 1 = 0 then zero_bits (k + 1) else k in
  let s = (zl * base_bits) + zero_bits 0 in
  let a = shift_right a s and b = shift_right b s in
  let la = Array.length a and lb = Array.length b in
  if la < lb then zero
  else begin
    let lq = la - lb + 1 in
    let r = Array.sub a 0 lq in
    let b0 = b.(0) in
    (* Newton's iteration for b0^-1 mod 2^30: b0 is its own inverse
       mod 8, and each round doubles the correct bits (3, 6, 12, 24, 48). *)
    let inv = ref b0 in
    for _ = 1 to 4 do
      inv := !inv * ((2 - (b0 * !inv)) land mask) land mask
    done;
    for i = 0 to lq - 1 do
      let qi = r.(i) * !inv land mask in
      let c = ref 0 in
      for j = 0 to (if lb < lq - i then lb else lq - i) - 1 do
        let t = r.(i + j) - (qi * b.(j)) + !c in
        r.(i + j) <- t land mask;
        c := t asr base_bits
      done;
      let k = ref (i + lb) in
      while !c <> 0 && !k < lq do
        let t = r.(!k) + !c in
        r.(!k) <- t land mask;
        c := t asr base_bits;
        incr k
      done;
      r.(i) <- qi
    done;
    normalize r
  end

(* [a mod m] for a native [0 < m], allocating nothing.  With [r < m <
   2^nb], [r lsl (62 - nb)] stays below 2^62, so each limb goes in
   [62 - nb] bits at a time (the whole limb for [m] below 2^32).  A
   62-bit [m] leaves no room: [r] is then doubled modulo [m] one bit at
   a time, never exceeding [m]. *)
let rem_int a m =
  if m <= 0 then invalid_arg "Natural.rem_int: non-positive modulus";
  let step = 62 - int_width m 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let limb = a.(i) in
    if step > 0 then begin
      let j = ref base_bits in
      while !j > 0 do
        let w = if step < !j then step else !j in
        j := !j - w;
        r := ((!r lsl w) lor ((limb lsr !j) land ((1 lsl w) - 1))) mod m
      done
    end
    else
      for j = base_bits - 1 downto 0 do
        let d = if !r >= m - !r then !r - (m - !r) else !r + !r in
        let d = d + ((limb lsr j) land 1) in
        r := if d >= m then d - m else d
      done
  done;
  !r

let rec gcd_int x y = if y = 0 then x else gcd_int y (x mod y)

(* Lehmer's gcd (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L). *)
let window_bits = 60
let cofactor_bound = 1 lsl 30

(* Bits [k, k + 60) of [a], for [a < 2^(k + 60)]. *)
let window a k =
  let limb i = if i < Array.length a then a.(i) else 0 in
  let i = k / base_bits and off = k mod base_bits in
  (limb i lsr off)
  lor (limb (i + 1) lsl (base_bits - off))
  lor (limb (i + 2) lsl ((2 * base_bits) - off))

(* [x·a + y·b] for cofactors [|x|, |y| <= 2^30] and a non-negative
   result below [B^(length a)]: every limb sum stays below 2^62, and
   [asr] carries the borrow of a negative term. *)
let combine x a y b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let s = (x * a.(i)) + (if i < lb then y * b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s asr base_bits
  done;
  assert (!carry = 0);
  normalize r

(* Euclid's quotient steps on the windows [ah >= bh] of [a >= b], with
   cofactors [(x, y, u, v)] such that [x·a + y·b] and [u·a + v·b] are
   the current pair.  A quotient is taken only when the two ends of the
   window's uncertainty give the same one (Knuth's test), so every step
   is one that Euclid on [a] and [b] takes too, and only while the
   cofactors stay within [cofactor_bound]. *)
let rec lehmer_steps ah bh x y u v =
  if bh + u = 0 || bh + v = 0 then (x, y, u, v)
  else begin
    let q = (ah + x) / (bh + u) in
    if q <> (ah + y) / (bh + v) || q >= cofactor_bound then (x, y, u, v)
    else begin
      let u' = x - (q * u) and v' = y - (q * v) in
      if abs u' > cofactor_bound || abs v' > cofactor_bound then (x, y, u, v)
      else lehmer_steps bh (ah - (q * bh)) u v u' v'
    end
  end

(* [a >= b]: Lehmer rounds while [b] needs more than an int, then
   native Euclid. *)
let rec gcd_ordered a b =
  match to_int_opt b with
  | Some 0 -> a
  | Some m -> (
    match to_int_opt a with
    | Some n -> of_int (gcd_int n m)
    | None -> of_int (gcd_int m (rem_int a m)))
  | None ->
    let k = num_bits a - window_bits in
    let x, y, u, v = lehmer_steps (window a k) (window b k) 1 0 0 1 in
    if y = 0 then gcd_ordered b (snd (divmod a b))
    else gcd_ordered (combine x a y b) (combine u a v b)

let gcd a b = if compare a b >= 0 then gcd_ordered a b else gcd_ordered b a

let pow a k =
  if k < 0 then invalid_arg "Natural.pow: negative exponent";
  let rec go acc a k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc a else acc in
      go acc (mul a a) (k lsr 1)
    end
  in
  go one a k

let chunk_digits = 9
let chunk_base = 1_000_000_000

let of_string str =
  let s = String.concat "" (String.split_on_char '_' str) in
  let len = String.length s in
  if len = 0 then invalid_arg "Natural.of_string: empty string";
  String.iter
    (fun ch ->
      if ch < '0' || ch > '9' then
        invalid_arg (Printf.sprintf "Natural.of_string: bad character %C" ch))
    s;
  let acc = ref zero in
  let pos = ref 0 in
  while !pos < len do
    let take = min chunk_digits (len - !pos) in
    let chunk = int_of_string (String.sub s !pos take) in
    let scale = int_of_float (10. ** float_of_int take) in
    acc := add_small (mul_small !acc scale) chunk;
    pos := !pos + take
  done;
  !acc

let to_string a =
  if is_zero a then "0"
  else begin
    let rec chunks acc a =
      if is_zero a then acc
      else begin
        let q, r = divmod_small a chunk_base in
        chunks (r :: acc) q
      end
    in
    match chunks [] a with
    | [] -> assert false
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
