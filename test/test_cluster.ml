(* Tests for the simulated-cluster substrate: PRNG, workload model,
   platform generators and noise. *)

module Q = Numeric.Rational

let rat = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Numeric.Prng.create ~seed:42 in
  let b = Numeric.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Numeric.Prng.bits64 a)
      (Numeric.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Numeric.Prng.create ~seed:1 in
  let b = Numeric.Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true
    (Numeric.Prng.bits64 a <> Numeric.Prng.bits64 b)

let test_prng_split_independent () =
  let a = Numeric.Prng.create ~seed:7 in
  let b = Numeric.Prng.split a in
  let c = Numeric.Prng.split a in
  Alcotest.(check bool) "splits differ" true
    (Numeric.Prng.bits64 b <> Numeric.Prng.bits64 c)

let test_prng_float_range () =
  let g = Numeric.Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let f = Numeric.Prng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_int_range () =
  let g = Numeric.Prng.create ~seed:5 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Numeric.Prng.int_range g ~lo:1 ~hi:10 in
    if v < 1 || v > 10 then Alcotest.failf "int out of range: %d" v;
    counts.(v - 1) <- counts.(v - 1) + 1
  done;
  (* each bucket within generous bounds of the expected 1000 *)
  Array.iteri
    (fun i c ->
      if c < 700 || c > 1300 then Alcotest.failf "bucket %d skewed: %d" (i + 1) c)
    counts

let test_prng_gaussian_moments () =
  let g = Numeric.Prng.create ~seed:11 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Numeric.Prng.gaussian g in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check (float 0.05)) "mean ~ 0" 0.0 mean;
  Alcotest.(check (float 0.05)) "var ~ 1" 1.0 var

let test_prng_lognormal_positive () =
  let g = Numeric.Prng.create ~seed:13 in
  for _ = 1 to 1000 do
    if Numeric.Prng.lognormal g ~sigma:0.2 <= 0.0 then
      Alcotest.fail "lognormal must be positive"
  done

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_sizes () =
  Alcotest.(check int) "input" 160_000 (Cluster.Workload.input_bytes ~n:100);
  Alcotest.(check int) "output" 80_000 (Cluster.Workload.output_bytes ~n:100);
  Alcotest.(check int) "flops" 2_000_000 (Cluster.Workload.flops ~n:100)

let test_workload_z_is_half () =
  (* The matrix-product application has z = 1/2 for any size/factors. *)
  List.iter
    (fun (n, f) ->
      let c, _, d =
        Cluster.Workload.costs Cluster.Workload.gdsdmi ~n ~comm_factor:f
          ~comp_factor:3
      in
      Alcotest.check rat (Printf.sprintf "z at n=%d" n) Q.half (Q.div d c))
    [ (40, 1); (100, 5); (200, 10); (400, 2) ]

let test_workload_factors_speed_up () =
  let c1, w1, d1 =
    Cluster.Workload.costs Cluster.Workload.gdsdmi ~n:100 ~comm_factor:1 ~comp_factor:1
  in
  let c2, w2, d2 =
    Cluster.Workload.costs Cluster.Workload.gdsdmi ~n:100 ~comm_factor:2 ~comp_factor:4
  in
  Alcotest.check rat "c halves" c2 (Q.div c1 Q.two);
  Alcotest.check rat "d halves" d2 (Q.div d1 Q.two);
  Alcotest.check rat "w quarters" w2 (Q.div w1 (Q.of_int 4))

let test_workload_platform_z () =
  let p =
    Cluster.Workload.platform Cluster.Workload.gdsdmi ~n:100 ~comm:[| 1; 2; 5 |]
      ~comp:[| 3; 1; 10 |]
  in
  Alcotest.(check (option rat)) "uniform z" (Some Q.half) (Dls.Platform.z_ratio p);
  Alcotest.(check int) "3 workers" 3 (Dls.Platform.size p)

let test_workload_validation () =
  (try
     ignore (Cluster.Workload.costs Cluster.Workload.gdsdmi ~n:0 ~comm_factor:1 ~comp_factor:1);
     Alcotest.fail "n = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Cluster.Workload.platform Cluster.Workload.gdsdmi ~n:10 ~comm:[| 1 |] ~comp:[| 1; 2 |]);
    Alcotest.fail "length mismatch accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_homogeneous () =
  let rng = Numeric.Prng.create ~seed:3 in
  let f = Cluster.Gen.factors rng Cluster.Gen.Homogeneous ~workers:8 in
  let all_equal a = Array.for_all (fun x -> x = a.(0)) a in
  Alcotest.(check bool) "comm uniform" true (all_equal f.Cluster.Gen.comm);
  Alcotest.(check bool) "comp uniform" true (all_equal f.Cluster.Gen.comp)

let test_gen_hom_comm () =
  let rng = Numeric.Prng.create ~seed:3 in
  let f = Cluster.Gen.factors rng Cluster.Gen.Hom_comm_het_comp ~workers:32 in
  let all_equal a = Array.for_all (fun x -> x = a.(0)) a in
  Alcotest.(check bool) "comm uniform" true (all_equal f.Cluster.Gen.comm);
  (* 32 independent draws are essentially never all equal *)
  Alcotest.(check bool) "comp varies" false (all_equal f.Cluster.Gen.comp)

let test_gen_factor_range () =
  let rng = Numeric.Prng.create ~seed:9 in
  for _ = 1 to 50 do
    let f = Cluster.Gen.factors rng Cluster.Gen.Heterogeneous ~workers:11 in
    Array.iter
      (fun x -> if x < 1 || x > 10 then Alcotest.failf "factor %d out of 1-10" x)
      (Array.append f.Cluster.Gen.comm f.Cluster.Gen.comp)
  done

let test_gen_scale () =
  let f = { Cluster.Gen.comm = [| 1; 2 |]; comp = [| 3; 4 |] } in
  let g = Cluster.Gen.scale ~comp_times:10 f in
  Alcotest.(check (array int)) "comm kept" [| 1; 2 |] g.Cluster.Gen.comm;
  Alcotest.(check (array int)) "comp x10" [| 30; 40 |] g.Cluster.Gen.comp

let test_gen_platform_is_bus_when_hom_comm () =
  let rng = Numeric.Prng.create ~seed:21 in
  let f = Cluster.Gen.factors rng Cluster.Gen.Hom_comm_het_comp ~workers:6 in
  let p = Cluster.Gen.platform Cluster.Workload.gdsdmi ~n:80 f in
  Alcotest.(check bool) "bus" true (Dls.Platform.is_bus p)

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)
(* ------------------------------------------------------------------ *)

let test_noise_none_is_identity () =
  let rng = Numeric.Prng.create ~seed:1 in
  let noise = Cluster.Noise.make ~params:Cluster.Noise.none rng ~n:200 in
  Alcotest.(check (float 1e-12)) "comm id" 3.5 (noise.Sim.Star.comm ~worker:0 3.5);
  Alcotest.(check (float 1e-12)) "comp id" 2.5 (noise.Sim.Star.comp ~worker:0 2.5)

let test_noise_overheads_inflate () =
  let rng = Numeric.Prng.create ~seed:1 in
  let params =
    { Cluster.Noise.none with Cluster.Noise.comm_overhead = 0.10; comp_overhead = 0.25 }
  in
  let noise = Cluster.Noise.make ~params rng ~n:100 in
  Alcotest.(check (float 1e-12)) "comm +10%" 1.10 (noise.Sim.Star.comm ~worker:0 1.0);
  Alcotest.(check (float 1e-12)) "comp +25%" 1.25 (noise.Sim.Star.comp ~worker:0 1.0)

let test_noise_cache_pressure_grows_with_n () =
  let rng = Numeric.Prng.create ~seed:1 in
  let params = { Cluster.Noise.none with Cluster.Noise.cache_pressure = 0.2 } in
  let small = (Cluster.Noise.make ~params rng ~n:40).Sim.Star.comp ~worker:0 1.0 in
  let large = (Cluster.Noise.make ~params rng ~n:200).Sim.Star.comp ~worker:0 1.0 in
  Alcotest.(check bool) "larger n, larger factor" true (large > small);
  Alcotest.(check (float 1e-12)) "exact at n=200" 1.2 large

(* ------------------------------------------------------------------ *)
(* Calibration regression                                              *)
(* ------------------------------------------------------------------ *)

(* The Figure 14 anchor: a single worker with speed-ups (comm 10, comp 9)
   processes 1000 products of 400x400 matrices in 1000*(c+w+d) seconds.
   This pins the gdsdmi calibration — if someone retunes the machine
   constants, this fails loudly and EXPERIMENTS.md must be redone. *)
let test_calibration_anchor () =
  let c, w, d =
    Cluster.Workload.costs Cluster.Workload.gdsdmi ~n:400 ~comm_factor:10
      ~comp_factor:9
  in
  let t1 = Q.mul (Q.of_int 1000) (Q.add (Q.add c w) d) in
  Alcotest.(check (float 0.05)) "~22.03 s" 22.03 (Q.to_float t1);
  (* and the exact rational value, for bit-level reproducibility *)
  Alcotest.(check string) "exact" "74368/3375" (Q.to_string t1)

let test_calibration_constants () =
  Alcotest.(check int) "flops rate" 750_000_000
    Cluster.Workload.gdsdmi.Cluster.Workload.flops_per_sec;
  Alcotest.(check int) "link rate" 125_000_000
    Cluster.Workload.gdsdmi.Cluster.Workload.bytes_per_sec

let () =
  Alcotest.run "cluster"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "lognormal positive" `Quick test_prng_lognormal_positive;
        ] );
      ( "workload",
        [
          Alcotest.test_case "sizes" `Quick test_workload_sizes;
          Alcotest.test_case "z = 1/2" `Quick test_workload_z_is_half;
          Alcotest.test_case "factors speed up" `Quick test_workload_factors_speed_up;
          Alcotest.test_case "platform z" `Quick test_workload_platform_z;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "gen",
        [
          Alcotest.test_case "homogeneous" `Quick test_gen_homogeneous;
          Alcotest.test_case "hom comm" `Quick test_gen_hom_comm;
          Alcotest.test_case "factor range" `Quick test_gen_factor_range;
          Alcotest.test_case "scale" `Quick test_gen_scale;
          Alcotest.test_case "bus when hom comm" `Quick test_gen_platform_is_bus_when_hom_comm;
        ] );
      ( "noise",
        [
          Alcotest.test_case "none is identity" `Quick test_noise_none_is_identity;
          Alcotest.test_case "overheads" `Quick test_noise_overheads_inflate;
          Alcotest.test_case "cache pressure" `Quick test_noise_cache_pressure_grows_with_n;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "fig14 anchor" `Quick test_calibration_anchor;
          Alcotest.test_case "constants" `Quick test_calibration_constants;
        ] );
    ]
