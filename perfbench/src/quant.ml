(* Order statistics over latency samples. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* [quantile_sorted s q] interpolates linearly between the two closest
   ranks of the ascending array [s] (the "type 7" estimator): position
   [q * (n - 1)], so q = 0 is the minimum and q = 1 the maximum. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Quant.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Quant.quantile: q outside [0, 1]";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
