(* Tests for the arbitrary-precision arithmetic substrate. *)

module N = Numeric.Natural
module Z = Numeric.Integer
module Q = Numeric.Rational

let nat = Alcotest.testable N.pp N.equal
let int_big = Alcotest.testable Z.pp Z.equal
let rat = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Random naturals as decimal strings up to [digits] long, so that all
   limb counts are exercised. *)
let gen_natural ?(min_digits = 1) digits =
  let open QCheck2.Gen in
  let* len = int_range min_digits digits in
  let* first = int_range 0 9 in
  let* rest = list_size (return (len - 1)) (int_range 0 9) in
  let s = String.concat "" (List.map string_of_int (first :: rest)) in
  return (N.of_string s)

let gen_integer digits =
  let open QCheck2.Gen in
  let* mag = gen_natural digits in
  let* negative = bool in
  let v = Z.of_natural mag in
  return (if negative then Z.neg v else v)

let gen_rational digits =
  let open QCheck2.Gen in
  let* n = gen_integer digits in
  let* d = gen_natural digits in
  let d = N.add d N.one in
  return (Q.make n (Z.of_natural d))

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Natural: unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_nat_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (N.to_int_opt (N.of_int n)))
    [ 0; 1; 2; 1073741823; 1073741824; max_int; max_int - 1; 123456789012345 ]

let test_nat_of_int_negative () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Natural.of_int: negative argument") (fun () ->
      ignore (N.of_int (-1)))

let test_nat_to_int_overflow () =
  let big = N.pow (N.of_int 10) 30 in
  Alcotest.(check (option int)) "10^30 does not fit" None (N.to_int_opt big)

let test_nat_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (N.to_string (N.of_string s)))
    [
      "0";
      "1";
      "999999999";
      "1000000000";
      "123456789123456789123456789";
      "99999999999999999999999999999999999999999999999999";
    ]

let test_nat_string_leading_zeros () =
  Alcotest.check nat "0007 = 7" (N.of_int 7) (N.of_string "0007")

let test_nat_string_separators () =
  Alcotest.check nat "1_000 = 1000" (N.of_int 1000) (N.of_string "1_000")

let test_nat_string_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Natural.of_string: empty string") (fun () ->
      ignore (N.of_string ""));
  (try
     ignore (N.of_string "12a3");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_nat_add_carry_chain () =
  (* (2^300 - 1) + 1 = 2^300: a maximal carry propagation. *)
  let p300 = N.shift_left N.one 300 in
  let m = N.sub p300 N.one in
  Alcotest.check nat "carry chain" p300 (N.add m N.one)

let test_nat_sub_borrow_chain () =
  let p300 = N.shift_left N.one 300 in
  let m = N.sub p300 N.one in
  Alcotest.check nat "borrow chain" m (N.sub p300 N.one)

let test_nat_sub_negative () =
  Alcotest.check_raises "negative result"
    (Invalid_argument "Natural.sub: negative result") (fun () ->
      ignore (N.sub (N.of_int 3) (N.of_int 5)))

let test_nat_mul_known () =
  let a = N.of_string "123456789123456789" in
  let b = N.of_string "987654321987654321" in
  Alcotest.check nat "big product"
    (N.of_string "121932631356500531347203169112635269")
    (N.mul a b)

let test_nat_divmod_known () =
  let a = N.of_string "121932631356500531347203169112635270" in
  let b = N.of_string "987654321987654321" in
  let q, r = N.divmod a b in
  Alcotest.check nat "quotient" (N.of_string "123456789123456789") q;
  Alcotest.check nat "remainder" N.one r

let test_nat_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

let test_nat_divmod_smaller () =
  let q, r = N.divmod (N.of_int 3) (N.of_int 10) in
  Alcotest.check nat "q" N.zero q;
  Alcotest.check nat "r" (N.of_int 3) r

let test_nat_divmod_addback () =
  (* A case engineered to trigger Knuth-D's rare add-back branch:
     u = B^3/2 where the first quotient estimate overshoots. *)
  let b30 = N.shift_left N.one 30 in
  let u = N.sub (N.shift_left N.one 89) N.one in
  let v = N.add (N.shift_left b30 30) N.one in
  let q, r = N.divmod u v in
  Alcotest.check nat "reconstruct" u (N.add (N.mul q v) r);
  Alcotest.(check bool) "r < v" true (N.compare r v < 0)

let test_nat_gcd () =
  Alcotest.check nat "gcd(48,36)" (N.of_int 12) (N.gcd (N.of_int 48) (N.of_int 36));
  Alcotest.check nat "gcd(0,5)" (N.of_int 5) (N.gcd N.zero (N.of_int 5));
  Alcotest.check nat "gcd(5,0)" (N.of_int 5) (N.gcd (N.of_int 5) N.zero);
  Alcotest.check nat "gcd coprime" N.one (N.gcd (N.of_int 17) (N.of_int 31))

let test_nat_pow () =
  Alcotest.check nat "2^10" (N.of_int 1024) (N.pow N.two 10);
  Alcotest.check nat "x^0" N.one (N.pow (N.of_int 12345) 0);
  Alcotest.check nat "10^20" (N.of_string "100000000000000000000") (N.pow N.ten 20)

let test_nat_shift () =
  Alcotest.check nat "1 << 100 >> 100" N.one
    (N.shift_right (N.shift_left N.one 100) 100);
  Alcotest.check nat "7 << 0" (N.of_int 7) (N.shift_left (N.of_int 7) 0);
  Alcotest.check nat "7 >> 3" N.zero (N.shift_right (N.of_int 7) 3);
  Alcotest.check nat "13 >> 2" (N.of_int 3) (N.shift_right (N.of_int 13) 2)

let test_nat_num_bits () =
  Alcotest.(check int) "bits 0" 0 (N.num_bits N.zero);
  Alcotest.(check int) "bits 1" 1 (N.num_bits N.one);
  Alcotest.(check int) "bits 2^30" 31 (N.num_bits (N.shift_left N.one 30));
  Alcotest.(check int) "bits 2^100-1" 100
    (N.num_bits (N.sub (N.shift_left N.one 100) N.one))

let test_nat_to_float () =
  Alcotest.(check (float 1e-9)) "to_float small" 12345.0
    (N.to_float (N.of_int 12345));
  Alcotest.(check (float 1e6)) "to_float 2^62" (Float.ldexp 1.0 62)
    (N.to_float (N.shift_left N.one 62))

(* ------------------------------------------------------------------ *)
(* Natural: properties                                                 *)
(* ------------------------------------------------------------------ *)

let nat_props =
  let g = gen_natural 50 in
  let g2 = QCheck2.Gen.pair g g in
  let g3 = QCheck2.Gen.triple g g g in
  [
    prop "nat: add commutative" g2 (fun (a, b) -> N.equal (N.add a b) (N.add b a));
    prop "nat: add associative" g3 (fun (a, b, c) ->
        N.equal (N.add (N.add a b) c) (N.add a (N.add b c)));
    prop "nat: (a+b)-b = a" g2 (fun (a, b) -> N.equal (N.sub (N.add a b) b) a);
    prop "nat: mul commutative" g2 (fun (a, b) -> N.equal (N.mul a b) (N.mul b a));
    prop "nat: mul distributes" g3 (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "nat: divmod reconstructs" g2 (fun (a, b) ->
        let b = N.add b N.one in
        let q, r = N.divmod a b in
        N.equal a (N.add (N.mul q b) r) && N.compare r b < 0);
    prop "nat: string roundtrip" g (fun a -> N.equal a (N.of_string (N.to_string a)));
    prop "nat: shift roundtrip" (QCheck2.Gen.pair g (QCheck2.Gen.int_range 0 200))
      (fun (a, k) -> N.equal a (N.shift_right (N.shift_left a k) k));
    prop "nat: compare antisymmetric" g2 (fun (a, b) ->
        N.compare a b = -N.compare b a);
    prop "nat: gcd divides both" g2 (fun (a, b) ->
        let b = N.add b N.one in
        let g = N.gcd a b in
        let _, r1 = N.divmod a g and _, r2 = N.divmod b g in
        N.is_zero r1 && N.is_zero r2);
    prop "nat: divexact inverts mul" g3 (fun (a, b, c) ->
        let b = N.shift_left (N.add b N.one) (N.num_bits c mod 67) in
        N.equal (N.divexact (N.mul a b) b) a);
    (* Force the Karatsuba path (the threshold is 512 limbs, ~4600
       decimal digits) and cross-check it against the schoolbook
       reference.  Minimum digit counts keep the inputs above the
       threshold. *)
    prop ~count:10 "nat: Karatsuba = schoolbook on large inputs"
      (QCheck2.Gen.pair (gen_natural ~min_digits:5000 9000)
         (gen_natural ~min_digits:5000 9000))
      (fun (a, b) -> N.equal (N.mul a b) (N.mul_schoolbook a b));
    prop ~count:8 "nat: Karatsuba on unbalanced operands"
      (QCheck2.Gen.pair (gen_natural ~min_digits:10000 14000)
         (gen_natural ~min_digits:5000 6000))
      (fun (a, b) -> N.equal (N.mul a b) (N.mul_schoolbook a b));
  ]

(* ------------------------------------------------------------------ *)
(* gcd against an independent oracle                                   *)
(* ------------------------------------------------------------------ *)

(* Euclid over [N.divmod]: the reference the library's Lehmer gcd is
   checked against.  It never calls [N.gcd]. *)
let rec euclid a b = if N.is_zero b then a else euclid b (snd (N.divmod a b))

let pow2 k = N.shift_left N.one k

(* Limb boundaries 2^(30k) +- 1 up to nine limbs, and the 2^62
   Small/Big edge. *)
let limb_edges =
  List.concat_map
    (fun k -> [ N.sub (pow2 k) N.one; pow2 k; N.add (pow2 k) N.one ])
    (List.init 9 (fun i -> 30 * (i + 1)) @ [ 61; 62; 63 ])

(* F(n), F(n+1) for n up to [n]: every Euclid quotient is 1, so
   Lehmer's rounds take the most steps per bit. *)
let fibonacci_pairs n =
  let rec go acc k a b = if k = 0 then acc else go ((b, a) :: acc) (k - 1) b (N.add a b) in
  go [] n N.one N.one

(* [g] is the greatest common divisor of [a] and [b]: the oracle's
   value, a divisor of both, and nothing larger divides both cofactors. *)
let gcd_ok a b g =
  let divides d x = N.is_zero d || N.is_zero (snd (N.divmod x d)) in
  let cofactor x = if N.is_zero g then N.zero else fst (N.divmod x g) in
  N.equal g (euclid a b)
  && divides g a && divides g b
  && (N.is_zero g || N.equal (euclid (cofactor a) (cofactor b)) N.one)

let check_gcd label a b =
  let g = N.gcd a b in
  if not (gcd_ok a b g && N.equal g (N.gcd b a)) then
    Alcotest.failf "%s: gcd(%s, %s) = %s, oracle %s" label (N.to_string a)
      (N.to_string b) (N.to_string g) (N.to_string (euclid a b))

let test_gcd_limb_edges () =
  List.iter (fun a -> List.iter (fun b -> check_gcd "limb edges" a b) limb_edges) limb_edges

let test_gcd_fibonacci () =
  let g = N.of_string "1000000007000000063" in
  List.iter
    (fun (a, b) ->
      check_gcd "fibonacci" a b;
      check_gcd "fibonacci times g" (N.mul g a) (N.mul g b))
    (fibonacci_pairs 700)

let test_gcd_degenerate () =
  let nine = N.sub (pow2 270) (N.of_int 12345) in
  List.iter
    (fun a ->
      check_gcd "zero" N.zero a;
      check_gcd "equal" a a;
      check_gcd "multiple" (N.mul a (N.of_int 3)) a;
      check_gcd "multiple by nine limbs" (N.mul a nine) a)
    (N.one :: N.of_int 12 :: nine :: limb_edges);
  Alcotest.check nat "gcd(0, 0)" N.zero (N.gcd N.zero N.zero)

(* One limb against nine, with and without a shared factor. *)
let gen_one_nine =
  let open QCheck2.Gen in
  let* small = map (fun n -> n + 1) (int_bound ((1 lsl 30) - 2)) in
  let* big = gen_natural ~min_digits:73 81 in
  let* shared = bool in
  return (if shared then (N.of_int small, N.mul big (N.of_int small)) else (N.of_int small, big))

(* Operands of up to nine limbs sharing a random factor, so the gcd is
   rarely 1. *)
let gen_shared =
  let open QCheck2.Gen in
  let* g = gen_natural 40 in
  let* x = gen_natural 45 in
  let* y = gen_natural 45 in
  let g = N.add g N.one in
  return (N.mul g x, N.mul g y)

let gcd_props =
  [
    prop ~count:1000 "gcd: oracle, greatest, on shared factors" gen_shared
      (fun (a, b) -> gcd_ok a b (N.gcd a b));
    prop ~count:500 "gcd: oracle, greatest, one limb against nine" gen_one_nine
      (fun (a, b) -> gcd_ok a b (N.gcd a b) && gcd_ok b a (N.gcd b a));
    prop ~count:1000 "gcd: rem_int agrees with divmod"
      (QCheck2.Gen.pair (gen_natural 90)
         (QCheck2.Gen.oneof
            [ QCheck2.Gen.int_range 1 ((1 lsl 32) + 5); QCheck2.Gen.int_range 1 max_int ]))
      (fun (a, m) -> N.equal (N.of_int (N.rem_int a m)) (snd (N.divmod a (N.of_int m))));
  ]

(* ------------------------------------------------------------------ *)
(* Integer                                                             *)
(* ------------------------------------------------------------------ *)

let test_int_of_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (string_of_int n) (Some n)
        (Z.to_int_opt (Z.of_int n)))
    [ 0; 1; -1; max_int; min_int + 1; min_int; 42; -42 ]

let test_int_signs () =
  Alcotest.(check int) "sign +" 1 (Z.sign (Z.of_int 5));
  Alcotest.(check int) "sign -" (-1) (Z.sign (Z.of_int (-5)));
  Alcotest.(check int) "sign 0" 0 (Z.sign Z.zero);
  Alcotest.check int_big "neg neg" (Z.of_int 5) (Z.neg (Z.of_int (-5)));
  Alcotest.check int_big "abs" (Z.of_int 5) (Z.abs (Z.of_int (-5)))

let test_int_divmod_truncation () =
  (* Must match OCaml's native (/) and (mod) on every sign combination. *)
  List.iter
    (fun (a, b) ->
      let q, r = Z.divmod (Z.of_int a) (Z.of_int b) in
      Alcotest.(check (option int))
        (Printf.sprintf "%d/%d" a b)
        (Some (a / b)) (Z.to_int_opt q);
      Alcotest.(check (option int))
        (Printf.sprintf "%d mod %d" a b)
        (Some (a mod b))
        (Z.to_int_opt r))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3); (0, 5) ]

let test_int_string () =
  Alcotest.check int_big "-123" (Z.of_int (-123)) (Z.of_string "-123");
  Alcotest.check int_big "+123" (Z.of_int 123) (Z.of_string "+123");
  Alcotest.(check string) "to_string" "-123" (Z.to_string (Z.of_int (-123)))

let test_int_pow_parity () =
  Alcotest.check int_big "(-2)^3" (Z.of_int (-8)) (Z.pow (Z.of_int (-2)) 3);
  Alcotest.check int_big "(-2)^4" (Z.of_int 16) (Z.pow (Z.of_int (-2)) 4);
  Alcotest.check int_big "0^0" Z.one (Z.pow Z.zero 0)

let int_props =
  let g = gen_integer 40 in
  let g2 = QCheck2.Gen.pair g g in
  let g3 = QCheck2.Gen.triple g g g in
  [
    prop "int: add commutative" g2 (fun (a, b) -> Z.equal (Z.add a b) (Z.add b a));
    prop "int: a + (-a) = 0" g (fun a -> Z.is_zero (Z.add a (Z.neg a)));
    prop "int: sub = add neg" g2 (fun (a, b) ->
        Z.equal (Z.sub a b) (Z.add a (Z.neg b)));
    prop "int: mul associative" g3 (fun (a, b, c) ->
        Z.equal (Z.mul (Z.mul a b) c) (Z.mul a (Z.mul b c)));
    prop "int: divmod reconstructs" g2 (fun (a, b) ->
        let b = if Z.is_zero b then Z.one else b in
        let q, r = Z.divmod a b in
        Z.equal a (Z.add (Z.mul q b) r)
        && N.compare (Z.magnitude r) (Z.magnitude b) < 0
        && (Z.is_zero r || Z.sign r = Z.sign a));
    prop "int: string roundtrip" g (fun a -> Z.equal a (Z.of_string (Z.to_string a)));
    prop "int: compare trichotomy" g2 (fun (a, b) ->
        let c = Z.compare a b in
        if c = 0 then Z.equal a b
        else if c < 0 then Z.compare b a > 0
        else Z.compare b a < 0);
  ]

(* ------------------------------------------------------------------ *)
(* Rational                                                            *)
(* ------------------------------------------------------------------ *)

let test_rat_normalization () =
  Alcotest.check rat "2/4 = 1/2" (Q.of_ints 1 2) (Q.of_ints 2 4);
  Alcotest.check rat "-2/-4 = 1/2" (Q.of_ints 1 2) (Q.of_ints (-2) (-4));
  Alcotest.check rat "2/-4 = -1/2" (Q.of_ints (-1) 2) (Q.of_ints 2 (-4));
  Alcotest.(check int) "den positive" 1 (Z.sign (Q.den (Q.of_ints 3 (-7))));
  Alcotest.check rat "0/5 = 0" Q.zero (Q.of_ints 0 5)

let test_rat_div_by_zero () =
  Alcotest.check_raises "of_ints x 0" Division_by_zero (fun () ->
      ignore (Q.of_ints 1 0));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rat_arithmetic_known () =
  Alcotest.check rat "1/2 + 1/3" (Q.of_ints 5 6) (Q.add Q.half (Q.of_ints 1 3));
  Alcotest.check rat "1/2 * 2/3" (Q.of_ints 1 3) (Q.mul Q.half (Q.of_ints 2 3));
  Alcotest.check rat "(1/2) / (3/4)" (Q.of_ints 2 3) (Q.div Q.half (Q.of_ints 3 4));
  Alcotest.check rat "1/2 - 1/2" Q.zero (Q.sub Q.half Q.half)

let test_rat_floor_ceil () =
  Alcotest.check int_big "floor 7/2" (Z.of_int 3) (Q.floor (Q.of_ints 7 2));
  Alcotest.check int_big "floor -7/2" (Z.of_int (-4)) (Q.floor (Q.of_ints (-7) 2));
  Alcotest.check int_big "ceil 7/2" (Z.of_int 4) (Q.ceil (Q.of_ints 7 2));
  Alcotest.check int_big "ceil -7/2" (Z.of_int (-3)) (Q.ceil (Q.of_ints (-7) 2));
  Alcotest.(check int) "floor_int 3" 3 (Q.floor_int (Q.of_int 3));
  Alcotest.(check int) "ceil_int 3" 3 (Q.ceil_int (Q.of_int 3))

let test_rat_of_float () =
  Alcotest.check rat "0.5" Q.half (Q.of_float 0.5);
  Alcotest.check rat "0.25" (Q.of_ints 1 4) (Q.of_float 0.25);
  Alcotest.check rat "-1.5" (Q.of_ints (-3) 2) (Q.of_float (-1.5));
  Alcotest.check rat "0.0" Q.zero (Q.of_float 0.0);
  Alcotest.check rat "3.0" (Q.of_int 3) (Q.of_float 3.0);
  Alcotest.check_raises "nan" (Invalid_argument "Rational.of_float: not finite")
    (fun () -> ignore (Q.of_float Float.nan))

let test_rat_of_string () =
  Alcotest.check rat "3/4" (Q.of_ints 3 4) (Q.of_string "3/4");
  Alcotest.check rat "-3/4" (Q.of_ints (-3) 4) (Q.of_string "-3/4");
  Alcotest.check rat "42" (Q.of_int 42) (Q.of_string "42");
  Alcotest.check rat "1.25" (Q.of_ints 5 4) (Q.of_string "1.25");
  Alcotest.check rat "-1.25e-2" (Q.of_ints (-1) 80) (Q.of_string "-1.25e-2");
  Alcotest.check rat "2.5E3" (Q.of_int 2500) (Q.of_string "2.5E3");
  Alcotest.check rat ".5" Q.half (Q.of_string ".5")

let test_rat_to_string () =
  Alcotest.(check string) "int form" "3" (Q.to_string (Q.of_int 3));
  Alcotest.(check string) "frac form" "-1/2" (Q.to_string (Q.of_ints 1 (-2)))

let test_rat_sum () =
  Alcotest.check rat "sum list" (Q.of_ints 11 6)
    (Q.sum [ Q.one; Q.half; Q.of_ints 1 3 ]);
  Alcotest.check rat "sum array" Q.zero (Q.sum_array [||])

let rat_props =
  let g = gen_rational 25 in
  let g2 = QCheck2.Gen.pair g g in
  let g3 = QCheck2.Gen.triple g g g in
  let open Q.Infix in
  [
    prop "rat: add commutative" g2 (fun (a, b) -> a +/ b =/ (b +/ a));
    prop "rat: add associative" g3 (fun (a, b, c) ->
        a +/ b +/ c =/ (a +/ (b +/ c)));
    prop "rat: mul associative" g3 (fun (a, b, c) ->
        a */ b */ c =/ (a */ (b */ c)));
    prop "rat: distributivity" g3 (fun (a, b, c) ->
        a */ (b +/ c) =/ ((a */ b) +/ (a */ c)));
    prop "rat: a * inv a = 1" g (fun a ->
        Q.is_zero a || a */ Q.inv a =/ Q.one);
    prop "rat: sub then add" g2 (fun (a, b) -> a -/ b +/ b =/ a);
    prop "rat: floor bounds" g (fun a ->
        let f = Q.of_integer (Q.floor a) in
        f <=/ a && a </ (f +/ Q.one));
    prop "rat: ceil = -floor(-a)" g (fun a ->
        Z.equal (Q.ceil a) (Z.neg (Q.floor (Q.neg a))));
    prop "rat: compare consistent with sub sign" g2 (fun (a, b) ->
        Q.compare a b = Q.sign (a -/ b));
    prop "rat: string roundtrip" g (fun a -> Q.of_string (Q.to_string a) =/ a);
    prop "rat: float roundtrip is exact" QCheck2.Gen.float (fun f ->
        (not (Float.is_finite f)) || Q.to_float (Q.of_float f) = f);
    prop "rat: pow matches repeated mul" (QCheck2.Gen.pair g (QCheck2.Gen.int_range 0 8))
      (fun (a, k) ->
        let rec rep acc i = if i = 0 then acc else rep (acc */ a) (i - 1) in
        Q.pow a k =/ rep Q.one k);
  ]

(* ------------------------------------------------------------------ *)
(* Additional edge cases                                               *)
(* ------------------------------------------------------------------ *)

let test_int_min_int_edges () =
  let m = Z.of_int min_int in
  Alcotest.(check (option int)) "roundtrip" (Some min_int) (Z.to_int_opt m);
  Alcotest.(check bool) "neg leaves int range" true
    (Z.to_int_opt (Z.neg m) = None);
  Alcotest.(check int) "sign" (-1) (Z.sign m);
  Alcotest.(check (float 1e30)) "to_float magnitude"
    (-4.611686018427388e18) (Z.to_float m)

let test_int_gcd_signs () =
  let n = Numeric.Natural.of_int 6 in
  Alcotest.(check bool) "gcd(-12, 18)" true
    (Numeric.Natural.equal n (Z.gcd (Z.of_int (-12)) (Z.of_int 18)));
  Alcotest.(check bool) "gcd(12, -18)" true
    (Numeric.Natural.equal n (Z.gcd (Z.of_int 12) (Z.of_int (-18))))

let test_rat_min_max () =
  Alcotest.check rat "min" Q.half (Q.min Q.half Q.one);
  Alcotest.check rat "max" Q.one (Q.max Q.half Q.one);
  Alcotest.check rat "min neg" (Q.of_int (-3)) (Q.min (Q.of_int (-3)) Q.zero)

let test_rat_negative_pow () =
  Alcotest.check rat "(2/3)^-2" (Q.of_ints 9 4) (Q.pow (Q.of_ints 2 3) (-2));
  Alcotest.check_raises "0^-1" Division_by_zero (fun () ->
      ignore (Q.pow Q.zero (-1)))

let test_rat_is_integer () =
  Alcotest.(check bool) "3 integer" true (Q.is_integer (Q.of_int 3));
  Alcotest.(check bool) "4/2 integer" true (Q.is_integer (Q.of_ints 4 2));
  Alcotest.(check bool) "1/2 not" false (Q.is_integer Q.half)

let test_rat_floor_int_overflow () =
  let huge = Q.of_integer (Z.of_natural (N.pow N.ten 30)) in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Rational.floor_int: result exceeds native int range")
    (fun () -> ignore (Q.floor_int huge))

let test_rat_infix_coverage () =
  let open Q.Infix in
  Alcotest.(check bool) "<>/" true (Q.half <>/ Q.one);
  Alcotest.(check bool) "</" true (Q.half </ Q.one);
  Alcotest.(check bool) "<=/" true (Q.half <=/ Q.half);
  Alcotest.(check bool) ">/" true (Q.one >/ Q.half);
  Alcotest.(check bool) ">=/" true (Q.one >=/ Q.one);
  Alcotest.check rat "chain" (Q.of_ints 3 2) (Q.one +/ Q.one -/ Q.half);
  Alcotest.check rat "div" Q.two (Q.one // Q.half)

let test_rat_of_string_errors () =
  List.iter
    (fun s ->
      try
        ignore (Q.of_string s);
        Alcotest.failf "accepted %S" s
      with Invalid_argument _ | Division_by_zero -> ())
    [
      ""; "abc"; "1/"; "/2"; "1/0"; "--3"; "1.2.3"; "1e"; "1e-"; "1e+"; "1E";
      "1e--2"; "1e2.5"; "1e0x10"; "1e1_0"; "e5"; "1e99999999999999999999";
      "1e-99999999999999999999"; "1e1001"; "1e-1001";
    ]

(* The exponent is bounded before any power of ten is built. *)
let test_rat_of_string_exponent_bound () =
  let t0 = Sys.time () in
  List.iter
    (fun s ->
      match Q.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ "1e2000000"; "1e-2000000"; "7.5e123456789"; "1E4611686018427387904" ];
  Alcotest.(check bool) "rejected in well under a second" true (Sys.time () -. t0 < 0.5);
  let ten = Z.of_int 10 in
  Alcotest.check rat "1e1000" (Q.of_integer (Z.pow ten 1000)) (Q.of_string "1e1000");
  Alcotest.check rat "1e-1000" (Q.make Z.one (Z.pow ten 1000)) (Q.of_string "1e-1000");
  Alcotest.check rat "2.5e+3" (Q.of_int 2500) (Q.of_string "2.5e+3");
  Alcotest.check rat "1.5e-0" (Q.of_ints 3 2) (Q.of_string "1.5e-0")

let edge_cases =
  [
    Alcotest.test_case "int min_int edges" `Quick test_int_min_int_edges;
    Alcotest.test_case "int gcd signs" `Quick test_int_gcd_signs;
    Alcotest.test_case "rat min/max" `Quick test_rat_min_max;
    Alcotest.test_case "rat negative pow" `Quick test_rat_negative_pow;
    Alcotest.test_case "rat is_integer" `Quick test_rat_is_integer;
    Alcotest.test_case "rat floor_int overflow" `Quick test_rat_floor_int_overflow;
    Alcotest.test_case "rat infix" `Quick test_rat_infix_coverage;
    Alcotest.test_case "rat of_string errors" `Quick test_rat_of_string_errors;
    Alcotest.test_case "rat of_string exponent bound" `Quick
      test_rat_of_string_exponent_bound;
  ]

(* ------------------------------------------------------------------ *)
(* Native-int boundary                                                 *)
(* ------------------------------------------------------------------ *)

(* A signed reference built on [Natural] alone: [(sign, magnitude)]
   with sign in {-1, 0, 1} and sign 0 exactly for a zero magnitude.
   Generators draw reference values and build [Integer]s from them with
   [Z.make], so every result below is checked against arithmetic that
   never runs through [Integer]. *)
module R = struct
  let make sign mag = if N.is_zero mag then (0, N.zero) else (sign, mag)
  let to_z (s, m) = Z.make s m
  let two62 = N.shift_left N.one 62

  let of_int n =
    if n = min_int then (-1, two62) else make (compare n 0) (N.of_int (abs n))
  let neg (s, m) = (-s, m)

  let add (sa, ma) (sb, mb) =
    if sa = 0 then (sb, mb)
    else if sb = 0 then (sa, ma)
    else if sa = sb then (sa, N.add ma mb)
    else
      let c = N.compare ma mb in
      if c = 0 then (0, N.zero)
      else if c > 0 then (sa, N.sub ma mb)
      else (sb, N.sub mb ma)

  let sub a b = add a (neg b)
  let mul (sa, ma) (sb, mb) = make (sa * sb) (N.mul_schoolbook ma mb)

  let divmod (sa, ma) (sb, mb) =
    let q, r = N.divmod ma mb in
    (make (sa * sb) q, make sa r)

  let compare (sa, ma) (sb, mb) =
    if sa <> sb then Stdlib.compare sa sb else sa * N.compare ma mb

  let to_int_opt (s, m) =
    match N.to_int_opt m with
    | Some v -> Some (s * v)
    | None -> if s < 0 && N.equal m two62 then Some min_int else None

  let to_string (s, m) = (if s < 0 then "-" else "") ^ N.to_string m
end

(* [z] is in canonical form: when it fits a native int it is
   indistinguishable from [Z.of_int] of that int. *)
let canonical z =
  match Z.to_int_opt z with
  | None -> true
  | Some v ->
    let n = Z.of_int v in
    Z.equal z n && Z.compare z n = 0 && Z.compare n z = 0
    && Z.to_string z = string_of_int v
    && z = n

(* [z] is the reference value [r], in canonical form. *)
let agrees z r =
  Z.sign z = fst r
  && N.equal (Z.magnitude z) (snd r)
  && Z.to_string z = R.to_string r
  && Z.to_int_opt z = R.to_int_opt r
  && canonical z

(* Magnitudes concentrated on the native boundary: 2^e + k around the
   30-bit limb, the 31-bit square root of the int range and 2^62
   (so max_int, |min_int| and products just under and over 62 bits),
   plus uniform draws of every width up to 62 bits and a few wider. *)
let gen_boundary_mag =
  let open QCheck2.Gen in
  let near_pow2 =
    let* e = oneofl [ 0; 1; 2; 30; 31; 32; 61; 62; 63; 64; 93; 124; 125 ] in
    let* k = int_range (-3) 3 in
    let p = N.shift_left N.one e in
    return
      (if k >= 0 then N.add p (N.of_int k)
       else if N.compare p (N.of_int (-k)) >= 0 then N.sub p (N.of_int (-k))
       else N.zero)
  in
  let native_width =
    let* bits = int_range 0 62 in
    let* v = int in
    return (N.of_int ((v land max_int) lsr (62 - bits)))
  in
  let wide =
    let* extra = int_range 1 140 in
    let* hi = int in
    let* lo = int in
    let top = N.of_int ((hi land max_int) lor (1 lsl 61)) in
    return (N.add (N.shift_left top extra) (N.of_int (lo land max_int)))
  in
  frequency
    [
      (4, near_pow2);
      (4, native_width);
      (2, map N.of_int (int_range 0 100));
      (1, wide);
    ]

let gen_boundary =
  let open QCheck2.Gen in
  let* negative = bool in
  let* m = gen_boundary_mag in
  return (R.make (if negative then -1 else 1) m)

let boundary_values =
  [
    0; 1; -1; 1 lsl 30; -(1 lsl 30); 1 lsl 31; -(1 lsl 31); max_int; -max_int;
    min_int; max_int - 1; min_int + 1; (1 lsl 31) - 1; 3037000499;
  ]

let test_int_boundary_overflow () =
  (* Adds, subs and muls whose true result leaves the native range by
     one, or lands exactly on min_int. *)
  let cases =
    [
      (max_int, 1); (max_int, max_int); (min_int, -1); (min_int, min_int);
      (-max_int, -1); (min_int, 1); (max_int, -max_int); (1 lsl 31, 1 lsl 31);
      ((1 lsl 31) - 1, (1 lsl 31) + 1); (-(1 lsl 31), 1 lsl 31);
      (3037000499, 3037000499); (max_int, 0); (min_int, 0);
    ]
  in
  List.iter
    (fun (x, y) ->
      let rx = R.of_int x and ry = R.of_int y in
      let zx = Z.of_int x and zy = Z.of_int y in
      let name op = Printf.sprintf "%d %s %d" x op y in
      Alcotest.(check bool) (name "+") true (agrees (Z.add zx zy) (R.add rx ry));
      Alcotest.(check bool) (name "-") true (agrees (Z.sub zx zy) (R.sub rx ry));
      Alcotest.(check bool) (name "*") true (agrees (Z.mul zx zy) (R.mul rx ry)))
    cases;
  Alcotest.(check (option int)) "max_int + 1 leaves int" None
    (Z.to_int_opt (Z.add (Z.of_int max_int) Z.one));
  Alcotest.(check (option int)) "-max_int - 1 = min_int" (Some min_int)
    (Z.to_int_opt (Z.sub (Z.of_int (-max_int)) Z.one));
  Alcotest.(check (option int)) "2^62 - 2^62 = 0" (Some 0)
    (Z.to_int_opt (Z.sub (Z.neg (Z.of_int min_int)) (Z.neg (Z.of_int min_int))));
  let q, r = Z.divmod (Z.of_int min_int) Z.minus_one in
  Alcotest.(check bool) "min_int / -1 = 2^62" true
    (agrees q (1, R.two62) && agrees r (0, N.zero))

(* [op] on native ints wraps modulo 2^63, so it equals the true result
   whenever the reference says the true result fits. *)
let native_agrees r z native =
  match R.to_int_opt r with
  | Some v -> Z.to_int_opt z = Some v && v = native ()
  | None -> Z.to_int_opt z = None

let boundary_props =
  let g = gen_boundary in
  let g2 = QCheck2.Gen.pair g g in
  let count = 2000 in
  let binop name zop rop nop =
    prop ~count ("int boundary: " ^ name) g2 (fun (a, b) ->
        let z = zop (R.to_z a) (R.to_z b) and r = rop a b in
        agrees z r
        &&
        match (R.to_int_opt a, R.to_int_opt b) with
        | Some x, Some y -> native_agrees r z (fun () -> nop x y)
        | _ -> true)
  in
  let gen_karatsuba =
    (* Limb counts on both sides of the 512-limb threshold. *)
    let open QCheck2.Gen in
    let* limbs = oneofl [ 500; 511; 512; 513; 530 ] in
    let* neg = bool in
    let* seed = int in
    let rng = Numeric.Prng.create ~seed in
    let m =
      List.fold_left
        (fun acc _ -> N.add (N.shift_left acc 30) (N.of_int (Numeric.Prng.int_range rng ~lo:0 ~hi:((1 lsl 30) - 1))))
        N.one (List.init limbs Fun.id)
    in
    return (R.make (if neg then -1 else 1) m)
  in
  [
    binop "add" Z.add R.add ( + );
    binop "sub" Z.sub R.sub ( - );
    binop "mul" Z.mul R.mul ( * );
    prop ~count "int boundary: divmod identity" g2 (fun (a, b) ->
        let b = if fst b = 0 then (1, N.one) else b in
        let za = R.to_z a and zb = R.to_z b in
        let q, r = Z.divmod za zb in
        let rq, rr = R.divmod a b in
        agrees q rq && agrees r rr
        && Z.equal za (Z.add (Z.mul q zb) r)
        && N.compare (Z.magnitude r) (Z.magnitude zb) < 0
        && (Z.is_zero r || Z.sign r = Z.sign za)
        &&
        match (R.to_int_opt a, R.to_int_opt b) with
        | Some x, Some y ->
          native_agrees rq q (fun () -> x / y) && native_agrees rr r (fun () -> x mod y)
        | _ -> true);
    prop ~count "int boundary: divexact" g2 (fun (a, b) ->
        let b = if fst b = 0 then (1, N.one) else b in
        agrees (Z.divexact (R.to_z (R.mul a b)) (R.to_z b)) a);
    prop ~count "int boundary: compare, equal" g2 (fun (a, b) ->
        let za = R.to_z a and zb = R.to_z b in
        let c = R.compare a b in
        Stdlib.compare (Z.compare za zb) 0 = Stdlib.compare c 0
        && Z.equal za zb = (c = 0)
        && (c <> 0 || za = zb));
    prop ~count "int boundary: neg, abs, sign" g (fun a ->
        let z = R.to_z a in
        agrees z a && agrees (Z.neg z) (R.neg a)
        && agrees (Z.abs z) (R.make 1 (snd a)));
    prop ~count "int boundary: gcd" g2 (fun (a, b) ->
        N.equal (Z.gcd (R.to_z a) (R.to_z b)) (euclid (snd a) (snd b)));
    prop ~count "int boundary: string roundtrip" g (fun a ->
        let z = R.to_z a in
        agrees (Z.of_string (Z.to_string z)) a);
    prop ~count "int boundary: native of_int roundtrip"
      (QCheck2.Gen.oneof [ QCheck2.Gen.int; QCheck2.Gen.oneofl boundary_values ])
      (fun n -> agrees (Z.of_int n) (R.of_int n) && Z.to_int_opt (Z.of_int n) = Some n);
    prop ~count:6 "int boundary: mul across the Karatsuba threshold"
      (QCheck2.Gen.pair gen_karatsuba gen_karatsuba) (fun (a, b) ->
        agrees (Z.mul (R.to_z a) (R.to_z b)) (R.mul a b));
  ]

(* Rationals with a shared denominator factor [g], so both sides of
   every reduced-form branch of add and mul are drawn often. *)
let gen_rat_boundary =
  let open QCheck2.Gen in
  let* g = oneofl [ 1; 2; 6; 30; 1 lsl 31; 3486784401; max_int ] in
  let* n1 = gen_boundary in
  let* n2 = gen_boundary in
  let* d1 = gen_boundary_mag in
  let* d2 = gen_boundary_mag in
  let den d = R.mul (R.of_int g) (R.make 1 (N.add d N.one)) in
  let q n d = Q.make (R.to_z n) (R.to_z (den d)) in
  return (q n1 d1, q n2 d2)

let r_of_z z = R.make (Z.sign z) (Z.magnitude z)

let normalised q =
  let n = Q.num q and d = Q.den q in
  Z.sign d > 0 && canonical n && canonical d
  && (if Z.is_zero n then Z.equal d Z.one
      else N.equal (N.gcd (Z.magnitude n) (Z.magnitude d)) N.one)

(* [r] is [num / den] given as references: r.num * den = num * r.den. *)
let rat_is r num den =
  normalised r
  && R.compare (R.mul (r_of_z (Q.num r)) den) (R.mul num (r_of_z (Q.den r))) = 0

let rat_boundary_props =
  let count = 2000 in
  let parts q = (r_of_z (Q.num q), r_of_z (Q.den q)) in
  [
    prop ~count "rat boundary: add normalised and exact" gen_rat_boundary
      (fun (a, b) ->
        let (an, ad), (bn, bd) = (parts a, parts b) in
        rat_is (Q.add a b) (R.add (R.mul an bd) (R.mul bn ad)) (R.mul ad bd)
        && rat_is (Q.sub a b) (R.sub (R.mul an bd) (R.mul bn ad)) (R.mul ad bd)
        && Q.is_zero (Q.add a (Q.neg a)) && normalised (Q.add a (Q.neg a)));
    prop ~count "rat boundary: mul, div normalised and exact" gen_rat_boundary
      (fun (a, b) ->
        let (an, ad), (bn, bd) = (parts a, parts b) in
        rat_is (Q.mul a b) (R.mul an bn) (R.mul ad bd)
        && (Q.is_zero b || rat_is (Q.div a b) (R.mul an bd) (R.mul ad bn)));
    prop ~count "rat boundary: compare" gen_rat_boundary (fun (a, b) ->
        let (an, ad), (bn, bd) = (parts a, parts b) in
        Stdlib.compare (Q.compare a b) 0
        = Stdlib.compare (R.compare (R.mul an bd) (R.mul bn ad)) 0);
    prop ~count "rat boundary: string roundtrip" gen_rat_boundary (fun (a, _) ->
        let a' = Q.of_string (Q.to_string a) in
        Q.equal a a' && normalised a' && a = a');
  ]

let test_rat_reduced_branches () =
  let check name expected got =
    Alcotest.check rat name expected got;
    Alcotest.(check bool) (name ^ " normalised") true (normalised got)
  in
  (* add: gcd(b, d) = 1; > 1 without and with a further cancellation;
     a zero sum over a shared denominator. *)
  check "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check "1/6 + 1/15" (Q.of_ints 7 30) (Q.add (Q.of_ints 1 6) (Q.of_ints 1 15));
  check "1/6 + 1/10" (Q.of_ints 4 15) (Q.add (Q.of_ints 1 6) (Q.of_ints 1 10));
  check "1/6 - 1/6" Q.zero (Q.add (Q.of_ints 1 6) (Q.of_ints (-1) 6));
  check "5/6 + 1/6" Q.one (Q.add (Q.of_ints 5 6) (Q.of_ints 1 6));
  check "3 + 4" (Q.of_int 7) (Q.add (Q.of_int 3) (Q.of_int 4));
  check "max_int + 1" (Q.of_integer (Z.add (Z.of_int max_int) Z.one))
    (Q.add (Q.of_int max_int) Q.one);
  check "1/max_int + 1/max_int" (Q.of_ints 2 max_int)
    (Q.add (Q.of_ints 1 max_int) (Q.of_ints 1 max_int));
  (* mul: no cross cancellation, both cross gcds, a zero factor. *)
  check "2/3 * 5/7" (Q.of_ints 10 21) (Q.mul (Q.of_ints 2 3) (Q.of_ints 5 7));
  check "2/3 * 9/4" (Q.of_ints 3 2) (Q.mul (Q.of_ints 2 3) (Q.of_ints 9 4));
  check "0 * 9/4" Q.zero (Q.mul Q.zero (Q.of_ints 9 4));
  check "-9/4 * 0" Q.zero (Q.mul (Q.of_ints (-9) 4) Q.zero);
  check "max_int/2 * 2/max_int" Q.one
    (Q.mul (Q.of_ints max_int 2) (Q.of_ints 2 max_int));
  check "(2^31/3)^2" (Q.make (R.to_z (1, R.two62)) (Z.of_int 9))
    (Q.mul (Q.of_ints (1 lsl 31) 3) (Q.of_ints (1 lsl 31) 3));
  check "-1/2 / -1/4" Q.two (Q.div (Q.of_ints (-1) 2) (Q.of_ints (-1) 4))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "numeric"
    [
      ( "natural.unit",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_nat_of_int_roundtrip;
          Alcotest.test_case "of_int negative" `Quick test_nat_of_int_negative;
          Alcotest.test_case "to_int overflow" `Quick test_nat_to_int_overflow;
          Alcotest.test_case "string roundtrip" `Quick test_nat_string_roundtrip;
          Alcotest.test_case "leading zeros" `Quick test_nat_string_leading_zeros;
          Alcotest.test_case "separators" `Quick test_nat_string_separators;
          Alcotest.test_case "invalid strings" `Quick test_nat_string_invalid;
          Alcotest.test_case "carry chain" `Quick test_nat_add_carry_chain;
          Alcotest.test_case "borrow chain" `Quick test_nat_sub_borrow_chain;
          Alcotest.test_case "sub negative" `Quick test_nat_sub_negative;
          Alcotest.test_case "mul known" `Quick test_nat_mul_known;
          Alcotest.test_case "divmod known" `Quick test_nat_divmod_known;
          Alcotest.test_case "divmod by zero" `Quick test_nat_divmod_by_zero;
          Alcotest.test_case "divmod smaller" `Quick test_nat_divmod_smaller;
          Alcotest.test_case "divmod add-back" `Quick test_nat_divmod_addback;
          Alcotest.test_case "gcd" `Quick test_nat_gcd;
          Alcotest.test_case "pow" `Quick test_nat_pow;
          Alcotest.test_case "shift" `Quick test_nat_shift;
          Alcotest.test_case "num_bits" `Quick test_nat_num_bits;
          Alcotest.test_case "to_float" `Quick test_nat_to_float;
        ] );
      ("natural.props", nat_props);
      ( "gcd",
        [
          Alcotest.test_case "oracle on limb edges" `Quick test_gcd_limb_edges;
          Alcotest.test_case "oracle on Fibonacci pairs" `Quick test_gcd_fibonacci;
          Alcotest.test_case "zero, equal and multiple operands" `Quick
            test_gcd_degenerate;
        ] );
      ("gcd.props", gcd_props);
      ( "integer.unit",
        [
          Alcotest.test_case "of_int" `Quick test_int_of_int;
          Alcotest.test_case "signs" `Quick test_int_signs;
          Alcotest.test_case "divmod truncation" `Quick test_int_divmod_truncation;
          Alcotest.test_case "strings" `Quick test_int_string;
          Alcotest.test_case "pow parity" `Quick test_int_pow_parity;
        ] );
      ("integer.props", int_props);
      ( "rational.unit",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "division by zero" `Quick test_rat_div_by_zero;
          Alcotest.test_case "arithmetic" `Quick test_rat_arithmetic_known;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "to_string" `Quick test_rat_to_string;
          Alcotest.test_case "sums" `Quick test_rat_sum;
        ] );
      ("rational.props", rat_props);
      ("edge_cases", edge_cases);
      ( "boundary",
        [
          Alcotest.test_case "int overflow edges" `Quick test_int_boundary_overflow;
          Alcotest.test_case "rat reduced-form branches" `Quick test_rat_reduced_branches;
        ] );
      ("boundary.props", boundary_props @ rat_boundary_props);
    ]
