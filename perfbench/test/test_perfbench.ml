(* The benchmark's generators and helpers: seeded streams are
   reproducible and have the shape each workload is chosen for. *)

open Perfbench
module P = Service.Protocol

let streams =
  ("hot-fleet", Gen.hot_fleet)
  :: List.map (fun w -> (Gen.name w, Gen.stream w)) Gen.all

let same_seed_same_lines () =
  List.iter
    (fun (name, stream) ->
      let lines ~seed =
        let warm, measured = stream ~seed ~n:300 in
        (Array.map Gen.line warm, Array.map Gen.line measured)
      in
      let a = lines ~seed:7 and b = lines ~seed:7 in
      Alcotest.(check bool) (name ^ " same seed") true (a = b);
      let c = lines ~seed:8 in
      Alcotest.(check bool) (name ^ " other seed") false (a = c))
    streams

let all_distinct xs =
  let t = Hashtbl.create (Array.length xs) in
  Array.for_all
    (fun x ->
      let fresh = not (Hashtbl.mem t x) in
      Hashtbl.replace t x ();
      fresh)
    xs

let cold_keys_distinct () =
  List.iter
    (fun seed ->
      let warm, measured = Gen.stream Gen.Cold_p11 ~seed ~n:1100 in
      let keys = Array.map Gen.key (Array.append warm measured) in
      Alcotest.(check bool) "distinct keys" true (all_distinct keys);
      let verbs = Hashtbl.create 4 in
      Array.iter
        (fun r ->
          let v = List.hd (String.split_on_char ' ' (Gen.line r)) in
          Hashtbl.replace verbs v ())
        measured;
      Alcotest.(check int) "all four verbs" 4 (Hashtbl.length verbs))
    [ 1; 2; 3 ]

let scenario_key = function
  | P.Solve r -> Gen.scenario_key r.P.s_platform
  | _ -> Alcotest.fail "near-dup sends only solve requests"

(* Every measured near-dup request is one worker field away from a
   request at most [Gen.window] positions earlier in the stream the
   daemon receives (warm-up first). *)
let near_dup_neighbours () =
  List.iter
    (fun seed ->
      let warm, measured = Gen.stream Gen.Near_dup ~seed ~n:1100 in
      let all = Array.append warm measured in
      let keys = Array.map scenario_key all in
      Alcotest.(check bool) "distinct keys" true (all_distinct keys);
      for i = Array.length warm to Array.length all - 1 do
        let near = ref false in
        for j = max 0 (i - Gen.window) to i - 1 do
          if Dls.Lp_model.scenario_key_distance keys.(i) keys.(j) = Some 1 then
            near := true
        done;
        if not !near then Alcotest.failf "request %d has no neighbour within %d" i Gen.window
      done)
    [ 1; 2; 3 ]

(* Each shard's share of hot-fleet's distinct keys, under the fixed
   ring, is larger than the 4096-entry tier-1 response cache. *)
let hot_working_set () =
  List.iter
    (fun seed ->
      let warm, _ = Gen.hot_fleet ~seed ~n:120_000 in
      let per_shard = Array.make (Array.length Gen.hot_shards) 0 in
      Array.iter
        (fun r ->
          let s = Gen.shard_of_key (Gen.key r) in
          per_shard.(s) <- per_shard.(s) + 1)
        warm;
      Array.iteri
        (fun s n ->
          if n <= 4096 then Alcotest.failf "seed %d shard %d holds %d keys" seed s n)
        per_shard)
    [ 1; 2 ]

let feq = Alcotest.float 1e-12

let quantiles () =
  Alcotest.check feq "single" 5. (Quant.quantile [| 5. |] 0.99);
  Alcotest.check feq "median even" 2.5 (Quant.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "median odd" 2. (Quant.median [| 3.; 1.; 2. |]);
  Alcotest.check feq "min" 1. (Quant.quantile [| 3.; 1.; 2. |] 0.);
  Alcotest.check feq "max" 3. (Quant.quantile [| 3.; 1.; 2. |] 1.);
  Alcotest.check feq "interpolated" 1.5 (Quant.quantile [| 1.; 2.; 3. |] 0.25);
  let hundred = Array.init 101 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p99 of 0..100" 99. (Quant.quantile hundred 0.99);
  Alcotest.check_raises "empty" (Invalid_argument "Quant.quantile: empty sample")
    (fun () -> ignore (Quant.median [||]))

let self_times () =
  Spans.reset ();
  Spans.request 0 (fun () ->
      Spans.span "a" (fun () -> Spans.span "b" (fun () -> Unix.sleepf 0.002));
      Spans.span "c" (fun () -> ()));
  let selfs = Spans.self_times (Spans.all ()) in
  let find n = List.find (fun ((s : Spans.span), _) -> s.Spans.name = n) selfs in
  let root, root_self = find "request" in
  let a, a_self = find "a" in
  let b, b_self = find "b" in
  Alcotest.(check int) "shared request id" b.Spans.req root.Spans.req;
  Alcotest.(check int) "parent" a.Spans.id b.Spans.parent;
  Alcotest.(check bool) "b holds the sleep" true (b_self >= 2000.);
  Alcotest.(check bool) "a excludes b" true (a_self < Spans.duration_us a -. 1999.);
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. selfs in
  Alcotest.check (Alcotest.float 1e-6) "self times add up" (Spans.duration_us root) total;
  ignore root_self

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "same seed, same lines" `Quick same_seed_same_lines;
          Alcotest.test_case "cold-p11 keys distinct" `Quick cold_keys_distinct;
          Alcotest.test_case "near-dup neighbours in window" `Quick near_dup_neighbours;
          Alcotest.test_case "hot-fleet per-shard working set" `Quick hot_working_set;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "quantiles on small arrays" `Quick quantiles;
          Alcotest.test_case "span self times" `Quick self_times;
        ] );
    ]
