(* Tests for the parallel evaluation layer: the domain pool, the LRU
   memo cache, and the headline guarantee that every parallel entry
   point (Brute, Search, Sweep) returns results bit-identical to its
   sequential counterpart. *)

module Q = Numeric.Rational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_array_map () =
  let f x = (x * x) + 1 in
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i - 3) in
      let expected = Array.map f arr in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            expected
            (Parallel.Pool.run ~jobs f arr))
        [ 1; 2; 3; 8 ])
    [ 0; 1; 2; 7; 64; 1000 ]

let test_pool_reuse () =
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      let a = Parallel.Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      let b = Parallel.Pool.map pool (fun x -> x * 2) [| 4; 5 |] in
      Alcotest.(check (array int)) "first batch" [| 2; 3; 4 |] a;
      Alcotest.(check (array int)) "second batch" [| 8; 10 |] b)

let test_pool_shutdown_degrades () =
  let pool = Parallel.Pool.create ~jobs:2 () in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  Alcotest.(check (array int))
    "map after shutdown runs sequentially" [| 1; 4; 9 |]
    (Parallel.Pool.map pool (fun x -> x * x) [| 1; 2; 3 |])

let test_pool_run_local_matches_map () =
  let f x = (2 * x) - 5 in
  let arr = Array.init 97 Fun.id in
  let expected = Array.map f arr in
  List.iter
    (fun jobs ->
      (* the scratch state (a counter here) must not leak into results *)
      let got =
        Parallel.Pool.run_local ~jobs
          ~init:(fun () -> ref 0)
          (fun seen x ->
            incr seen;
            f x)
          arr
      in
      Alcotest.(check (array int))
        (Printf.sprintf "run_local jobs=%d" jobs)
        expected got)
    [ 1; 2; 4 ]

let test_pool_run_local_init_per_domain () =
  (* [init] builds one state per participating domain: at most [jobs]
     per call, and exactly one when everything runs in the caller. *)
  List.iter
    (fun jobs ->
      let inits = Atomic.make 0 in
      let got =
        Parallel.Pool.run_local ~jobs
          ~init:(fun () -> Atomic.incr inits)
          (fun () x -> x + 1)
          (Array.init 200 Fun.id)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "run_local result, jobs=%d" jobs)
        (Array.init 200 succ) got;
      let n = Atomic.get inits in
      if n < 1 || n > jobs then
        Alcotest.failf "jobs=%d: init ran %d times" jobs n)
    [ 1; 2; 3; 4 ]

exception Boom of int

let test_pool_first_failure_wins () =
  let f i = if i mod 5 = 3 then raise (Boom i) else i in
  List.iter
    (fun jobs ->
      match Parallel.Pool.run ~jobs f (Array.init 40 Fun.id) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        check_int (Printf.sprintf "smallest failing index, jobs=%d" jobs) 3 i)
    [ 1; 2; 4 ]

let test_pool_failure_leaves_pool_usable () =
  (* A task raising in a worker domain must reach the caller and leave
     the pool fully reusable — no wedged domains, no dropped results on
     the next batch. *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      (match Parallel.Pool.map pool (fun i -> if i = 17 then raise (Boom i) else i)
               (Array.init 64 Fun.id)
       with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom 17 -> ());
      let again = Parallel.Pool.map pool (fun i -> i * i) (Array.init 64 Fun.id) in
      check "pool reusable after failure" true
        (again = Array.init 64 (fun i -> i * i)))

let test_pool_concurrent_maps () =
  (* Several domains mapping on one pool at once.  Each call must
     return its own deterministic result. *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let run_one k =
        let arr = Array.init 500 (fun i -> i + (1000 * k)) in
        let expected = Array.map (fun x -> (2 * x) + k) arr in
        for _ = 1 to 5 do
          let got = Parallel.Pool.map pool (fun x -> (2 * x) + k) arr in
          if got <> expected then Alcotest.failf "concurrent map %d diverged" k
        done
      in
      let ds = List.init 3 (fun k -> Domain.spawn (fun () -> run_one (k + 1))) in
      run_one 0;
      List.iter Domain.join ds)

let test_pool_reentrant_map () =
  (* The task function maps on the same pool it runs on; the old pool
     raised Invalid_argument here. *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let inner i =
        Parallel.Pool.map pool (fun x -> x * x) (Array.init (i + 1) Fun.id)
      in
      let got =
        Parallel.Pool.map pool
          (fun i -> Array.fold_left ( + ) 0 (inner i))
          (Array.init 20 Fun.id)
      in
      let expected =
        Array.init 20 (fun i ->
            Array.fold_left ( + ) 0 (Array.init (i + 1) (fun x -> x * x)))
      in
      Alcotest.(check (array int)) "reentrant map = sequential" expected got)

exception Failed_at of int * int

let test_pool_hammer () =
  (* Three systhreads map on one jobs=3 pool while a nested map runs on
     it too: the outer map's tasks each map on the same pool.  Every
     index of every batch must run exactly once (per-index counters),
     and every call must return [Array.map] or, when some of its items
     raise, its own smallest failure.  Problems are collected rather
     than raised, since an exception would only end its own thread. *)
  let problems = ref [] and m = Mutex.create () in
  let report fmt =
    Printf.ksprintf
      (fun msg -> Mutex.protect m (fun () -> problems := msg :: !problems))
      fmt
  in
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      let one_call ~caller ~round =
        let n = 1 + (((caller * 37) + (round * 11)) mod 150) in
        let counts = Array.init n (fun _ -> Atomic.make 0) in
        let failing i = round mod 3 = 0 && i mod 7 = 5 in
        let f i =
          Atomic.incr counts.(i);
          if failing i then raise (Failed_at (caller, i));
          (1000 * caller) + i
        in
        let arr = Array.init n Fun.id in
        (match Parallel.Pool.map pool f arr with
        | got ->
          if Array.exists failing arr then
            report "caller %d round %d: a failure was lost" caller round
          else if got <> Array.map (fun i -> (1000 * caller) + i) arr then
            report "caller %d round %d: wrong result" caller round
        | exception Failed_at (c, i) ->
          if c <> caller || i <> 5 then
            report "caller %d round %d: raised (%d, %d)" caller round c i);
        Array.iteri
          (fun i c ->
            let c = Atomic.get c in
            if c <> 1 then
              report "caller %d round %d: index %d ran %d times" caller round
                i c)
          counts
      in
      let threads =
        List.init 3 (fun k ->
            Thread.create
              (fun () ->
                for round = 0 to 40 do
                  one_call ~caller:k ~round
                done)
              ())
      in
      let outer =
        Parallel.Pool.map pool
          (fun j ->
            for round = 0 to 5 do
              one_call ~caller:(10 + j) ~round
            done;
            j)
          (Array.init 12 Fun.id)
      in
      List.iter Thread.join threads;
      if outer <> Array.init 12 Fun.id then report "nested outer map: wrong result");
  match !problems with
  | [] -> ()
  | ps -> Alcotest.fail (String.concat "; " (List.rev ps))

let pool_map_equiv_prop =
  QCheck2.Test.make ~count:40
    ~name:"pool: map = Array.map over random n/jobs"
    QCheck2.Gen.(pair (int_range 0 300) (int_range 1 8))
    (fun (n, jobs) ->
      let f x = (x * 7) - (x * x) in
      let arr = Array.init n (fun i -> i - (n / 2)) in
      Parallel.Pool.run ~jobs f arr = Array.map f arr)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Parallel.Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Parallel.Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.failf "clock stepped back: %Ld after %Ld" t !prev;
    prev := t
  done;
  let t0 = Parallel.Clock.now () in
  check "elapsed_s never negative" true
    (Parallel.Clock.elapsed_s ~since:t0 >= 0.)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basics () =
  let c = Parallel.Lru.create ~capacity:8 () in
  check "miss on empty" true (Parallel.Lru.find c "a" = None);
  Parallel.Lru.add c "a" 1;
  Parallel.Lru.add c "b" 2;
  check "hit" true (Parallel.Lru.find c "a" = Some 1);
  check_int "length" 2 (Parallel.Lru.length c);
  check_int "capacity" 8 (Parallel.Lru.capacity c);
  Parallel.Lru.clear c;
  check_int "cleared" 0 (Parallel.Lru.length c);
  check "miss after clear" true (Parallel.Lru.find c "a" = None)

let test_lru_eviction_order () =
  let c = Parallel.Lru.create ~capacity:2 () in
  Parallel.Lru.add c "a" 1;
  Parallel.Lru.add c "b" 2;
  (* Touch "a" so "b" becomes the least recently used entry. *)
  ignore (Parallel.Lru.find c "a");
  Parallel.Lru.add c "c" 3;
  check "b evicted" false (Parallel.Lru.mem c "b");
  check "a kept" true (Parallel.Lru.mem c "a");
  check "c kept" true (Parallel.Lru.mem c "c");
  let s = Parallel.Lru.stats c in
  check_int "one eviction" 1 s.Parallel.Lru.evictions

let test_lru_disabled () =
  let c = Parallel.Lru.create ~capacity:0 () in
  Parallel.Lru.add c "a" 1;
  check "nothing stored" true (Parallel.Lru.find c "a" = None);
  let calls = ref 0 in
  let compute () = incr calls; 7 in
  ignore (Parallel.Lru.find_or_compute c "a" compute);
  ignore (Parallel.Lru.find_or_compute c "a" compute);
  check_int "always recomputes" 2 !calls;
  check_int "stays empty" 0 (Parallel.Lru.length c)

let test_lru_concurrent_hammer () =
  (* Many domains hitting overlapping keys: no crash, and every lookup
     observes the canonical value for its key. *)
  let c = Parallel.Lru.create ~capacity:16 () in
  let f i =
    let k = i mod 24 in
    Parallel.Lru.find_or_compute c k (fun () -> 2 * k)
  in
  let results = Parallel.Pool.run ~jobs:4 f (Array.init 480 Fun.id) in
  Array.iteri
    (fun i v ->
      if v <> 2 * (i mod 24) then
        Alcotest.failf "index %d: got %d, want %d" i v (2 * (i mod 24)))
    results

let test_lru_find_or_compute_sequential () =
  (* Sequentially: one miss and one compute, then hits, no joins. *)
  let c = Parallel.Lru.create ~capacity:4 () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  check_int "computed" 42 (Parallel.Lru.find_or_compute c "k" compute);
  check_int "cached" 42 (Parallel.Lru.find_or_compute c "k" compute);
  check_int "compute ran once" 1 !calls;
  let s = Parallel.Lru.stats c in
  check_int "one miss" 1 s.Parallel.Lru.misses;
  check_int "one hit" 1 s.Parallel.Lru.hits;
  check_int "no join" 0 s.Parallel.Lru.joins

let test_lru_find_or_compute_failure () =
  (* A compute that raises must clean up its flight so the key stays
     computable, and must cache nothing. *)
  let c = Parallel.Lru.create ~capacity:4 () in
  let boom () = failwith "boom" in
  (match Parallel.Lru.find_or_compute c "k" boom with
  | _ -> Alcotest.fail "expected the compute's exception"
  | exception Failure _ -> ());
  check "nothing cached" true (Parallel.Lru.find c "k" = None);
  check_int "recovers" 7 (Parallel.Lru.find_or_compute c "k" (fun () -> 7))

let spin () =
  (* Widen the in-flight window without sleeping (keeps the test free of
     unix/thread dependencies). *)
  for _ = 1 to 50_000 do
    ignore (Sys.opaque_identity ())
  done

let test_lru_single_flight_hammer () =
  (* The satellite property: under multi-domain contention each key is
     computed exactly once (single-flight), every caller observes the
     canonical value, and the counters stay exact — misses = one per
     key, and every other call either hit or joined a flight. *)
  let keys = 64 and ops = 512 and jobs = 8 in
  let c = Parallel.Lru.create ~capacity:128 () in
  let computes = Array.init keys (fun _ -> Atomic.make 0) in
  let f i =
    let k = i mod keys in
    Parallel.Lru.find_or_compute c k (fun () ->
        Atomic.incr computes.(k);
        spin ();
        3 * k)
  in
  let results = Parallel.Pool.run ~jobs f (Array.init ops Fun.id) in
  Array.iteri
    (fun i v ->
      if v <> 3 * (i mod keys) then
        Alcotest.failf "index %d: got %d, want %d" i v (3 * (i mod keys)))
    results;
  Array.iteri
    (fun k n ->
      let n = Atomic.get n in
      if n <> 1 then Alcotest.failf "key %d computed %d times" k n)
    computes;
  let s = Parallel.Lru.stats c in
  check_int "one miss per key" keys s.Parallel.Lru.misses;
  check_int "everything else hit or joined" (ops - keys)
    (s.Parallel.Lru.hits + s.Parallel.Lru.joins);
  check_int "no eviction" 0 s.Parallel.Lru.evictions

let test_lru_eviction_pressure_hammer () =
  (* Regression for the in-flight eviction race: with a capacity far
     below the live key set, a computed entry can be evicted between the
     computer's insert and a joiner's wake-up.  The flight record pins
     the computed value, so every joiner must still observe the correct
     value for its key — never a recompute of a different key's flight,
     never a hang.  Recomputes of evicted keys are expected; wrong
     values are not. *)
  let keys = 32 and ops = 2048 and jobs = 8 in
  let c = Parallel.Lru.create ~capacity:2 () in
  let f i =
    let k = i mod keys in
    let v =
      Parallel.Lru.find_or_compute c k (fun () ->
          spin ();
          (7 * k) + 1)
    in
    if v <> (7 * k) + 1 then
      Alcotest.failf "key %d: got %d, want %d" k v ((7 * k) + 1);
    v
  in
  let _ = Parallel.Pool.run ~jobs f (Array.init ops Fun.id) in
  let s = Parallel.Lru.stats c in
  check "evictions happened (pressure is real)" true
    (s.Parallel.Lru.evictions > 0);
  check_int "accounting: hits + misses + joins = ops" ops
    (s.Parallel.Lru.hits + s.Parallel.Lru.misses + s.Parallel.Lru.joins)

let test_lru_find_or_compute_disabled () =
  (* capacity 0: nothing is ever cached, joiners that find neither an
     entry nor a flight must become computers themselves — recomputes
     happen, but no call may hang. *)
  let c = Parallel.Lru.create ~capacity:0 () in
  let computes = Atomic.make 0 in
  let f i =
    ignore
      (Parallel.Lru.find_or_compute c (i mod 4) (fun () ->
           Atomic.incr computes;
           i mod 4));
    i
  in
  let _ = Parallel.Pool.run ~jobs:4 f (Array.init 64 Fun.id) in
  check "recomputed at least once per key" true (Atomic.get computes >= 4);
  check_int "stays empty" 0 (Parallel.Lru.length c)

(* ------------------------------------------------------------------ *)
(* Platform generators                                                 *)
(* ------------------------------------------------------------------ *)

(* Random platforms in both return-message regimes: d < c (z < 1,
   results smaller than inputs) and d > c (z > 1). *)
let gen_platform ~z_gt_1 ~max_workers =
  QCheck2.Gen.(
    let* n = int_range 2 max_workers in
    let* specs =
      list_repeat n (triple (int_range 1 5) (int_range 1 6) (int_range 1 5))
    in
    return
      (Dls.Platform.make_exn
         (List.mapi
            (fun i (c, w, d) ->
              let c = Q.of_ints c 4 in
              let w = Q.of_int w in
              (* force the regime while keeping d heterogeneous *)
              let d =
                if z_gt_1 then Q.add c (Q.of_ints d 4) else Q.of_ints d 24
              in
              Dls.Platform.worker
                ~name:(Printf.sprintf "P%d" (i + 1))
                ~c ~w ~d ())
            specs)))

let same_solution label (a : Dls.Lp_model.solved) (b : Dls.Lp_model.solved) =
  if not (Q.equal a.Dls.Lp_model.rho b.Dls.Lp_model.rho) then
    Alcotest.failf "%s: rho %s <> %s" label
      (Q.to_string a.Dls.Lp_model.rho)
      (Q.to_string b.Dls.Lp_model.rho);
  if
    a.Dls.Lp_model.scenario.Dls.Scenario.sigma1
    <> b.Dls.Lp_model.scenario.Dls.Scenario.sigma1
    || a.Dls.Lp_model.scenario.Dls.Scenario.sigma2
       <> b.Dls.Lp_model.scenario.Dls.Scenario.sigma2
  then Alcotest.failf "%s: selected scenarios differ" label;
  Array.iteri
    (fun i ai ->
      if not (Q.equal ai b.Dls.Lp_model.alpha.(i)) then
        Alcotest.failf "%s: alpha.(%d) differs" label i)
    a.Dls.Lp_model.alpha;
  true

(* ------------------------------------------------------------------ *)
(* Parallel = sequential, bit for bit                                  *)
(* ------------------------------------------------------------------ *)

let brute_determinism ~z_gt_1 name =
  QCheck2.Test.make ~count:12 ~name
    (gen_platform ~z_gt_1 ~max_workers:4)
    (fun p ->
      same_solution "best_fifo"
        (Dls.Brute.best_fifo ~jobs:1 p)
        (Dls.Brute.best_fifo ~jobs:2 p)
      && same_solution "best_lifo"
           (Dls.Brute.best_lifo ~jobs:1 p)
           (Dls.Brute.best_lifo ~jobs:2 p)
      && same_solution "best_general"
           (Dls.Brute.best_general ~jobs:1 p)
           (Dls.Brute.best_general ~jobs:2 p))

(* The certified fast path and the dominance pruner are pure
   accelerations: switching both off must reproduce the default scan bit
   for bit, including the idle vector. *)
let fast_prune_transparency ~z_gt_1 name =
  QCheck2.Test.make ~count:10 ~name
    (gen_platform ~z_gt_1 ~max_workers:4)
    (fun p ->
      let plain = Dls.Brute.best_fifo ~fast:false ~prune:false p in
      let accel = Dls.Brute.best_fifo p in
      ignore (same_solution "best_fifo fast+prune" plain accel);
      if
        not
          (Array.for_all2 Q.equal plain.Dls.Lp_model.idle
             accel.Dls.Lp_model.idle)
      then Alcotest.fail "best_fifo fast+prune: idle differs";
      let plain = Dls.Brute.best_lifo ~fast:false ~prune:false p in
      let accel = Dls.Brute.best_lifo p in
      same_solution "best_lifo fast+prune" plain accel
      && Array.for_all2 Q.equal plain.Dls.Lp_model.idle
           accel.Dls.Lp_model.idle)

(* A fixed grid, p in {4,5} and every return regime: on each platform
   the accelerated FIFO scan returns the plain exact scan's answer bit
   for bit and spends strictly fewer exact-simplex pivots doing it.  A
   pivot count, read as a before/after delta of the global counters,
   where a wall-time comparison would flake on a loaded host. *)
let solver_platform ~p ~regime ~z =
  let rng = Numeric.Prng.create ~seed:(7901 + (97 * p) + regime) in
  let specs =
    List.init p (fun _ ->
        let c = Q.of_ints (Numeric.Prng.int_range rng ~lo:2 ~hi:9) 4 in
        let w = Q.of_ints (Numeric.Prng.int_range rng ~lo:4 ~hi:20) 2 in
        (c, w))
  in
  Dls.Platform.with_return_ratio ~z specs

let test_fast_fewer_exact_pivots () =
  let counted f =
    Dls.Lp_model.reset_cache ();
    let before = (Dls.Lp_model.pipeline_stats ()).Dls.Lp_model.exact_pivots in
    let sol = f () in
    (sol, (Dls.Lp_model.pipeline_stats ()).Dls.Lp_model.exact_pivots - before)
  in
  List.iter
    (fun p ->
      List.iteri
        (fun regime z ->
          let label = Printf.sprintf "p=%d z=%s" p (Q.to_string z) in
          let platform = solver_platform ~p ~regime ~z in
          let plain, plain_pivots =
            counted (fun () ->
                Dls.Brute.best_fifo ~fast:false ~prune:false platform)
          in
          let accel, accel_pivots =
            counted (fun () -> Dls.Brute.best_fifo platform)
          in
          Printf.printf "%s: %d/%d exact pivots\n" label accel_pivots
            plain_pivots;
          ignore (same_solution label plain accel);
          if
            not
              (Array.for_all2 Q.equal plain.Dls.Lp_model.idle
                 accel.Dls.Lp_model.idle)
          then Alcotest.failf "%s: idle differs" label;
          if not (accel_pivots < plain_pivots) then
            Alcotest.failf "%s: %d exact pivots, plain scan %d" label
              accel_pivots plain_pivots)
        [ Q.of_ints 1 2; Q.one; Q.of_int 2 ])
    [ 4; 5 ]

let search_determinism ~z_gt_1 name =
  QCheck2.Test.make ~count:10 ~name
    (gen_platform ~z_gt_1 ~max_workers:5)
    (fun p ->
      let seq = Dls.Search.best_fifo ~jobs:1 p in
      let par = Dls.Search.best_fifo ~jobs:3 p in
      same_solution "best_fifo" seq.Dls.Search.solved par.Dls.Search.solved)

let test_brute_general_determinism () =
  let p =
    Dls.Platform.make_exn
      [
        Dls.Platform.worker ~name:"P1" ~c:(Q.of_ints 1 2) ~w:(Q.of_int 2)
          ~d:(Q.of_ints 1 3) ();
        Dls.Platform.worker ~name:"P2" ~c:(Q.of_ints 1 3) ~w:(Q.of_int 1)
          ~d:(Q.of_ints 1 2) ();
        Dls.Platform.worker ~name:"P3" ~c:(Q.of_ints 1 4) ~w:(Q.of_int 3)
          ~d:(Q.of_ints 1 5) ();
      ]
  in
  ignore
    (same_solution "best_general"
       (Dls.Brute.best_general ~jobs:1 p)
       (Dls.Brute.best_general ~jobs:2 p))

(* Theorem 2's bus regime: the one-port bound 1/(c+d) binds, so every
   one of the 14400 (sigma1, sigma2) pairs ties the optimum.  Two domains
   share one incumbent and prune a tie behind it, so only a handful of
   LPs are solved, as with one domain. *)
let test_brute_general_bus_ties () =
  let p =
    Result.get_ok
      (Dls.Platform.of_spec ~line:1 ~col:1
         "1:1:1/2,1:2:1/2,1:3:1/2,1:4:1/2,1:5:1/2")
  in
  let solves () =
    let s = Dls.Lp_model.pipeline_stats () in
    s.Dls.Lp_model.float_wins + s.Dls.Lp_model.warm_wins
    + s.Dls.Lp_model.exact_fallbacks
  in
  Dls.Lp_model.reset_cache ();
  let before = solves () in
  let par = Dls.Brute.best_general ~jobs:2 p in
  let n = solves () - before in
  if n >= 100 then Alcotest.failf "%d LP solves on the bus platform" n;
  ignore (same_solution "bus best_general" (Dls.Brute.best_general ~jobs:1 p) par)

let test_sweep_determinism () =
  let config =
    {
      Experiments.Sweep.fig12 with
      Experiments.Sweep.id = "test";
      platforms = 3;
      workers = 4;
      sizes = [ 40; 80 ];
      total = 100;
      seed = 7;
    }
  in
  let seq = Experiments.Sweep.run ~jobs:1 config in
  let par = Experiments.Sweep.run ~jobs:2 config in
  check "sweep report identical under jobs=2" true (seq = par);
  let par3 = Experiments.Sweep.run ~jobs:3 config in
  check "sweep report identical under jobs=3" true (seq = par3)

(* ------------------------------------------------------------------ *)
(* LP cache                                                            *)
(* ------------------------------------------------------------------ *)

let small_platform =
  Dls.Platform.make_exn
    [
      Dls.Platform.worker ~name:"P1" ~c:(Q.of_ints 1 2) ~w:(Q.of_int 2)
        ~d:(Q.of_ints 1 4) ();
      Dls.Platform.worker ~name:"P2" ~c:(Q.of_ints 1 3) ~w:(Q.of_int 1)
        ~d:(Q.of_ints 1 6) ();
      Dls.Platform.worker ~name:"P3" ~c:(Q.of_ints 2 5) ~w:(Q.of_int 3)
        ~d:(Q.of_ints 1 5) ();
    ]

let test_cache_hit_identical () =
  Dls.Lp_model.reset_cache ();
  let scenario =
    Dls.Scenario.fifo_exn small_platform (Dls.Fifo.order small_platform)
  in
  let cold = Dls.Solve.solve_exn ~mode:`Exact scenario in
  let first = Dls.Solve.solve_exn ~mode:`Cached scenario in
  let second = Dls.Solve.solve_exn ~mode:`Cached scenario in
  ignore (same_solution "cached vs cold" cold first);
  ignore (same_solution "hit vs cold" cold second);
  check "hit returns the stored value" true (first == second);
  check "idle identical" true
    (Array.for_all2 Q.equal cold.Dls.Lp_model.idle second.Dls.Lp_model.idle);
  let s = Dls.Lp_model.cache_stats () in
  check_int "one miss" 1 s.Parallel.Lru.misses;
  check_int "one hit" 1 s.Parallel.Lru.hits

let test_cache_key_separates () =
  let order = Dls.Fifo.order small_platform in
  let fifo = Dls.Scenario.fifo_exn small_platform order in
  let lifo = Dls.Scenario.lifo_exn small_platform order in
  let key = Dls.Lp_model.scenario_key Dls.Lp_model.One_port in
  check "fifo key stable" true (key fifo = key fifo);
  check "fifo/lifo keys differ" true (key fifo <> key lifo);
  check "model is part of the key" true
    (key fifo <> Dls.Lp_model.scenario_key Dls.Lp_model.Two_port fifo)

let test_cache_capacity_zero () =
  Dls.Lp_model.reset_cache ~capacity:0 ();
  let scenario =
    Dls.Scenario.fifo_exn small_platform (Dls.Fifo.order small_platform)
  in
  let a = Dls.Solve.solve_exn ~mode:`Cached scenario in
  let b = Dls.Solve.solve_exn ~mode:`Cached scenario in
  ignore (same_solution "uncached solves agree" a b);
  let s = Dls.Lp_model.cache_stats () in
  check_int "nothing retained" 0 s.Parallel.Lru.size;
  check_int "two misses" 2 s.Parallel.Lru.misses;
  Dls.Lp_model.reset_cache ()

let test_cached_brute_parallel () =
  (* The brute-force scan funnels every LP through the shared cache from
     several domains at once; the winner must still match sequential. *)
  Dls.Lp_model.reset_cache ();
  let p = small_platform in
  let seq = Dls.Brute.best_fifo ~jobs:1 p in
  Dls.Lp_model.reset_cache ();
  let par = Dls.Brute.best_fifo ~jobs:4 p in
  ignore (same_solution "cached parallel brute" seq par)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_pool_matches_array_map;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown degrades" `Quick test_pool_shutdown_degrades;
          Alcotest.test_case "first failure wins" `Quick test_pool_first_failure_wins;
          Alcotest.test_case "failure leaves pool usable" `Quick
            test_pool_failure_leaves_pool_usable;
          Alcotest.test_case "run_local = map" `Quick
            test_pool_run_local_matches_map;
          Alcotest.test_case "concurrent maps on one pool" `Quick
            test_pool_concurrent_maps;
          Alcotest.test_case "reentrant map" `Quick test_pool_reentrant_map;
          Alcotest.test_case "run_local init per domain" `Quick
            test_pool_run_local_init_per_domain;
          Alcotest.test_case "threads and nested map hammer" `Quick
            test_pool_hammer;
        ]
        @ qsuite [ pool_map_equiv_prop ] );
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "find_or_compute sequential" `Quick
            test_lru_find_or_compute_sequential;
          Alcotest.test_case "capacity 0 disables" `Quick test_lru_disabled;
          Alcotest.test_case "concurrent hammer" `Quick test_lru_concurrent_hammer;
          Alcotest.test_case "find_or_compute failure" `Quick
            test_lru_find_or_compute_failure;
          Alcotest.test_case "single-flight hammer" `Quick
            test_lru_single_flight_hammer;
          Alcotest.test_case "eviction-pressure hammer" `Quick
            test_lru_eviction_pressure_hammer;
          Alcotest.test_case "find_or_compute capacity 0" `Quick
            test_lru_find_or_compute_disabled;
        ] );
      ( "determinism",
        qsuite
          [
            brute_determinism ~z_gt_1:false "brute fifo/lifo, z < 1";
            brute_determinism ~z_gt_1:true "brute fifo/lifo, z > 1";
            fast_prune_transparency ~z_gt_1:false "fast+prune off = on, z < 1";
            fast_prune_transparency ~z_gt_1:true "fast+prune off = on, z > 1";
            search_determinism ~z_gt_1:false "search B&B, z < 1";
            search_determinism ~z_gt_1:true "search B&B, z > 1";
          ]
        @ [
            Alcotest.test_case "brute general" `Quick test_brute_general_determinism;
            Alcotest.test_case "brute general, bus ties" `Quick
              test_brute_general_bus_ties;
            Alcotest.test_case "sweep report" `Quick test_sweep_determinism;
            Alcotest.test_case "fast scan, fewer exact pivots" `Quick
              test_fast_fewer_exact_pivots;
          ] );
      ( "cache",
        [
          Alcotest.test_case "hit identical to cold" `Quick test_cache_hit_identical;
          Alcotest.test_case "key separates scenarios" `Quick test_cache_key_separates;
          Alcotest.test_case "capacity 0" `Quick test_cache_capacity_zero;
          Alcotest.test_case "parallel brute through cache" `Quick
            test_cached_brute_parallel;
        ] );
    ]
