(* The scheduler-as-a-service subsystem: wire protocol round trips and
   totality, the admission core (single flight, backpressure, budget,
   shed, brownout, drain) on a virtual clock, the daemon's shell around
   it on real sockets, and the deterministic load generator.  Servers bind throwaway Unix sockets under the temp dir;
   everything runs in-process. *)

module Q = Numeric.Rational
module P = Service.Protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let q = Q.of_string

let platform specs =
  Dls.Platform.make_exn
    (List.mapi
       (fun i (c, w, d) ->
         Dls.Platform.worker
           ~name:(Printf.sprintf "P%d" (i + 1))
           ~c:(q c) ~w:(q w) ~d:(q d) ())
       specs)

let p2 () = platform [ ("1", "1", "1/2"); ("1", "2", "1/2") ]
let p3 () = platform [ ("1/2", "1", "1/4"); ("1", "2", "1/2"); ("2", "3", "1") ]

let tmp_socket () =
  let path = Filename.temp_file "dls-service" ".sock" in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)
(* ------------------------------------------------------------------ *)

let sample_requests () =
  [
    P.Solve
      {
        s_platform = p2 ();
        s_order = P.Fifo;
        s_model = Dls.Lp_model.One_port;
        s_fast = true;
        s_load = None;
      };
    P.Solve
      {
        s_platform = p3 ();
        s_order = P.Lifo;
        s_model = Dls.Lp_model.Two_port;
        s_fast = false;
        s_load = Some (q "1000");
      };
    P.Simulate
      {
        m_platform = p2 ();
        m_order = P.Fifo;
        m_items = 100;
        m_faults = None;
        m_replan = P.Replan_auto;
      };
    P.Simulate
      {
        m_platform = p3 ();
        m_order = P.Lifo;
        m_items = 50;
        m_faults =
          Some
            (Dls.Faults.make_exn
               [
                 Dls.Faults.Slowdown
                   { worker = 1; factor = q "3/2"; from_ = q "1/4" };
                 Dls.Faults.Crash { worker = 0; at = q "5/8" };
               ]);
        m_replan = P.Replan_policy Dls.Replan.Resolve;
      };
    P.Simulate
      {
        m_platform = p2 ();
        m_order = P.Fifo;
        m_items = 10;
        m_faults =
          Some
            (Dls.Faults.make_exn
               [
                 Dls.Faults.Stall
                   { worker = 1; at = q "1/8"; duration = q "1/2" };
               ]);
        m_replan = P.Replan_none;
      };
    P.Check (p3 ());
    P.Stats;
    P.Health;
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let line = P.request_to_string r in
      match P.parse_request ~line:1 line with
      | Error e -> Alcotest.failf "%S did not re-parse: %s" line (Dls.Errors.to_string e)
      | Ok r' ->
        (* canonical-form equality: the rendered line is the identity *)
        check_str "canonical line survives" line (P.request_to_string r'))
    (sample_requests ())

let sample_responses () =
  [
    P.Ok_solve
      {
        rho = q "6/11";
        sigma1 = [| 0; 1 |];
        alpha = [| q "4/11"; q "2/11" |];
        idle = [| q "0"; q "0" |];
        makespan = Some (q "550/3");
      };
    P.Ok_solve
      {
        rho = q "1/2";
        sigma1 = [| 2; 0; 1 |];
        alpha = [| q "1/4"; q "1/8"; q "1/8" |];
        idle = [| q "0"; q "1/16"; q "0" |];
        makespan = None;
      };
    P.Ok_simulate
      {
        sim_makespan = 118.;
        lp_makespan = 116.66666666666667;
        sim_valid = true;
        achieved = None;
        achieved_ratio = None;
        replanned = None;
      };
    P.Ok_simulate
      {
        sim_makespan = 1.5;
        lp_makespan = 1.25;
        sim_valid = true;
        achieved = Some 42.;
        achieved_ratio = Some 0.84;
        replanned = Some "margin:1/4";
      };
    P.Ok_check { check_ok = false; violations = 3 };
    P.Ok_stats
      {
        accepted = 10;
        served = 7;
        rejected = 2;
        timed_out = 1;
        failed = 2;
        malformed = 1;
        batches = 4;
        max_batch = 5;
        collapsed = 3;
        cache_hits = 6;
        cache_misses = 4;
        repair_probes = 3;
        repair_wins = 2;
        repair_pivots = 5;
        shed = 2;
        brownouts = 1;
        hangups = 3;
        warm_hits = 5;
        journal_appended = 9;
        store_hits = 6;
        store_misses = 3;
        store_demoted = 2;
        compactions = 1;
        queue_depth = 0;
        inflight = 0;
        p50_us = 256;
        p90_us = 1024;
        p99_us = 2048;
        max_us = 1843;
        uptime_s = 12.5;
      };
    P.Ok_health
      {
        healthy = true;
        draining = false;
        h_mode = P.Mode_healthy;
        h_uptime_s = 3.25;
        h_queue_depth = 2;
        h_capacity = 64;
        h_workers = 4;
      };
    P.Ok_health
      {
        healthy = false;
        draining = false;
        h_mode = P.Mode_degraded;
        h_uptime_s = 7.5;
        h_queue_depth = 48;
        h_capacity = 64;
        h_workers = 4;
      };
    P.Overloaded { depth = 64; capacity = 64 };
    P.Timed_out { budget = 0.005 };
    P.Shed { wait = 0.75; budget = 0.25 };
    P.Failed Dls.Errors.Unbounded;
    P.Failed Dls.Errors.Infeasible;
    P.Failed (Dls.Errors.Invalid_scenario "load must be positive");
    P.Failed (Dls.Errors.Io_error "server is draining");
    P.Failed
      (Dls.Errors.Parse_error
         { file = None; line = 1; col = 7; msg = "not a rational: \"x\"" });
  ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let line = P.response_to_string r in
      match P.parse_response line with
      | Error e -> Alcotest.failf "%S did not re-parse: %s" line (Dls.Errors.to_string e)
      | Ok r' -> check_str "canonical line survives" line (P.response_to_string r'))
    (sample_responses ())

(* A reply line has no comments: a '#' in free text or in a word value
   is part of the reply.  (Request lines still strip '#' comments.) *)
let test_reply_keeps_hash () =
  List.iter
    (fun (r, line) ->
      check_str "rendered" line (P.response_to_string r);
      match P.parse_response line with
      | Error e -> Alcotest.failf "%S did not re-parse: %s" line (Dls.Errors.to_string e)
      | Ok r' ->
        check "same reply" true (r = r');
        check_str "canonical line survives" line (P.response_to_string r'))
    [
      ( P.Failed (Dls.Errors.Invalid_scenario "worker #3 has c=0"),
        "error invalid worker #3 has c=0" );
      ( P.Ok_simulate
          {
            sim_makespan = 1.5;
            lp_makespan = 1.25;
            sim_valid = true;
            achieved = None;
            achieved_ratio = None;
            replanned = Some "a#b";
          },
        "ok simulate makespan=1.5 lp=1.25 valid=true replan=a#b" );
    ];
  match P.parse_request ~line:1 "solve 1:1:1 # a comment" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "request comment: %s" (Dls.Errors.to_string e)

let expect_parse_error ~col input =
  match P.parse_request ~line:3 input with
  | Ok _ -> Alcotest.failf "%S parsed" input
  | Error (Dls.Errors.Parse_error { line; col = c; _ }) ->
    check_int (input ^ ": line") 3 line;
    check_int (input ^ ": col") col c
  | Error e ->
    Alcotest.failf "%S: expected a parse error, got %s" input
      (Dls.Errors.to_string e)

let test_request_error_positions () =
  (* Positions point at the offending token (1-based columns), as in
     the Platform_io/Schedule_io suites. *)
  expect_parse_error ~col:1 "frobnicate 1:1:1";
  expect_parse_error ~col:7 "solve 1:1";
  (* the position lands on the offending rational inside the spec *)
  expect_parse_error ~col:15 "solve 1:1:1,2:x:1";
  expect_parse_error ~col:13 "solve 1:1:1 order=sideways";
  expect_parse_error ~col:13 "solve 1:1:1 load=-3";
  expect_parse_error ~col:13 "solve 1:1:1 banana=7";
  expect_parse_error ~col:16 "simulate 1:1:1 items=0";
  expect_parse_error ~col:16 "simulate 1:1:1 faults=crash:0";
  expect_parse_error ~col:13 "check 1:1:1 extra=1";
  expect_parse_error ~col:7 "stats now";
  expect_parse_error ~col:1 ""

(* A bad element of a list field in a reply is reported at its field's
   token, as a bad value of any other field is. *)
let test_list_field_error_column () =
  let line = "ok solve rho=1/2 sigma1=0,1 alpha=1/4,x idle=0,0" in
  match P.parse_response line with
  | Ok _ -> Alcotest.failf "%S parsed" line
  | Error (Dls.Errors.Parse_error { col; msg; _ }) ->
    check_int "column of the alpha= token" 29 col;
    check_str "message names the element" "not a rational: \"x\"" msg
  | Error e ->
    Alcotest.failf "expected a parse error, got %s" (Dls.Errors.to_string e)

(* A decimal exponent is bounded before any power of ten is built: this
   26-byte line once spent seconds computing 10^2000000. *)
let test_huge_exponent_rejected () =
  let t0 = Unix.gettimeofday () in
  expect_parse_error ~col:9 "solve 1:1e2000000:1,2:3:4";
  expect_parse_error ~col:13 "solve 1:1:1 load=1e-99999999999999999999";
  check "rejected in well under a second" true (Unix.gettimeofday () -. t0 < 0.5)

let test_parser_garbage_never_raises () =
  let rng = Random.State.make [| 2026; 8; 6; 5 |] in
  let alphabet =
    "0123456789/-.,:;=#solvecheckstamulathfqropidxyz overloadtimeru\t\"\\"
  in
  let garbage () =
    String.init
      (Random.State.int rng 100)
      (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])
  in
  for _ = 1 to 1000 do
    let s = garbage () in
    (match P.parse_request ~line:1 s with Ok _ | Error _ -> ());
    match P.parse_response s with Ok _ | Error _ -> ()
  done;
  (* mutations of valid lines must stay total too *)
  let valid =
    List.map P.request_to_string (sample_requests ())
    @ List.map P.response_to_string (sample_responses ())
  in
  List.iter
    (fun line ->
      let n = String.length line in
      for _ = 1 to 50 do
        let s =
          match Random.State.int rng 3 with
          | 0 -> String.sub line 0 (Random.State.int rng (n + 1))
          | 1 ->
            String.mapi
              (fun i ch ->
                if i = Random.State.int rng n then
                  alphabet.[Random.State.int rng (String.length alphabet)]
                else ch)
              line
          | _ ->
            line
            ^ String.init 3 (fun _ ->
                  alphabet.[Random.State.int rng (String.length alphabet)])
        in
        (match P.parse_request ~line:1 s with Ok _ | Error _ -> ());
        match P.parse_response s with Ok _ | Error _ -> ()
      done)
    valid

(* Non-finite floats: the renderer emits the canonical [nan]/[inf]/
   [-inf] spellings (never locale/libc-dependent garbage), and the
   parser rejects them with a typed parse error — a non-finite value on
   the wire can only be an upstream bug, so it must not round-trip
   silently into a client. *)
let test_float_nonfinite () =
  check_str "nan renders canonically" "timeout budget=nan"
    (P.response_to_string (P.Timed_out { budget = Float.nan }));
  check_str "inf renders canonically" "timeout budget=inf"
    (P.response_to_string (P.Timed_out { budget = Float.infinity }));
  check_str "-inf renders canonically" "timeout budget=-inf"
    (P.response_to_string (P.Timed_out { budget = Float.neg_infinity }));
  List.iter
    (fun line ->
      match P.parse_response line with
      | Ok _ -> Alcotest.failf "%S parsed" line
      | Error (Dls.Errors.Parse_error { msg; _ }) ->
        check (line ^ ": typed as non-finite") true
          (String.length msg >= 10 && String.sub msg 0 10 = "non-finite")
      | Error e ->
        Alcotest.failf "%S: expected a parse error, got %s" line
          (Dls.Errors.to_string e))
    [ "timeout budget=nan"; "timeout budget=inf"; "timeout budget=-inf" ];
  (match P.parse_response "timeout budget=banana" with
  | Error (Dls.Errors.Parse_error _) -> ()
  | Ok _ -> Alcotest.fail "garbage float parsed"
  | Error e -> Alcotest.failf "expected a parse error, got %s" (Dls.Errors.to_string e));
  (* finite values still round-trip to the shortest form *)
  check_str "finite float round-trips" "timeout budget=0.25"
    (P.response_to_string (P.Timed_out { budget = 0.25 }))

(* Platform specs: field order is pinned (a reversal regression), blanks
   around separators are tolerated, stray separators are rejected with
   the position of the offending field. *)
let test_platform_spec_hardening () =
  (match Dls.Platform.of_spec ~line:1 ~col:1 "1:2:1/2,2:3:1" with
  | Error e -> Alcotest.failf "spec rejected: %s" (Dls.Errors.to_string e)
  | Ok p ->
    let w0 = Dls.Platform.get p 0 in
    check "worker order pinned" true
      (Q.equal w0.Dls.Platform.c Q.one
      && Q.equal w0.Dls.Platform.w (Q.of_int 2)
      && Q.equal w0.Dls.Platform.d (Q.of_ints 1 2)));
  (match Dls.Platform.of_spec ~line:1 ~col:1 "1:2:1/2 ,\t2:3:1" with
  | Error e -> Alcotest.failf "blanks rejected: %s" (Dls.Errors.to_string e)
  | Ok p ->
    check_str "blanks trimmed, canonical spec" "1:2:1/2,2:3:1"
      (Dls.Platform.to_spec p));
  List.iter
    (fun (spec, expect_col) ->
      match Dls.Platform.of_spec ~line:1 ~col:1 spec with
      | Ok _ -> Alcotest.failf "spec %S: expected a parse error" spec
      | Error (Dls.Errors.Parse_error { col; _ }) ->
        check_int (Printf.sprintf "col of %S" spec) expect_col col
      | Error e ->
        Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e))
    [
      ("1:2:1/2,", 9);  (* stray ',' *)
      (",1:2:1/2", 1);
      ("1:2:1/2, ,2:3:1", 10);  (* whitespace-only worker *)
      ("1::1/2", 3);  (* stray ':' *)
      ("1:2:", 5);
      ("1:2", 1);  (* too few fields: blamed on the worker *)
    ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantiles () =
  let m = Service.Metrics.create () in
  (* Empty histogram: quantiles are 0, not an invented bucket edge. *)
  let s0 = Service.Metrics.snapshot m ~queue_depth:0 in
  check_int "empty p50" 0 s0.P.p50_us;
  check_int "empty p99" 0 s0.P.p99_us;
  (* Below 8 us every microsecond has its own bucket. *)
  Service.Metrics.observe_latency m 3e-6;
  let s1 = Service.Metrics.snapshot m ~queue_depth:0 in
  check_int "3us reads 3" 3 s1.P.p50_us;
  (* An absurd latency lands in the overflow bucket; the quantile must
     saturate at [max_tracked_us] instead of fabricating 2^40. *)
  let m2 = Service.Metrics.create () in
  Service.Metrics.observe_latency m2 1e7 (* seconds = 1e13 us *);
  let s2 = Service.Metrics.snapshot m2 ~queue_depth:0 in
  check_int "overflow saturates p50" Service.Metrics.max_tracked_us s2.P.p50_us;
  check_int "overflow saturates p99" Service.Metrics.max_tracked_us s2.P.p99_us;
  check "max_us keeps the raw value" true (s2.P.max_us > Service.Metrics.max_tracked_us)

(* A known sample, spread over five decades: every quantile reads at
   or above the exact nearest-rank value, and within 12.5% of it. *)
let test_metrics_quantile_error () =
  let m = Service.Metrics.create () in
  let prng = Numeric.Prng.create ~seed:11 in
  let seconds =
    Array.init 5000 (fun _ -> 1e-6 *. (10. ** (5. *. Numeric.Prng.float prng)))
  in
  Array.iter (Service.Metrics.observe_latency m) seconds;
  (* the whole microseconds the histogram files, sorted *)
  let us = Array.map (fun s -> int_of_float (s *. 1e6)) seconds in
  Array.sort compare us;
  let exact q =
    us.(max 0 (int_of_float (ceil (q *. float_of_int (Array.length us))) - 1))
  in
  let s = Service.Metrics.snapshot m ~queue_depth:0 in
  List.iter
    (fun (name, q, read) ->
      let truth = exact q in
      if read < truth || float_of_int read > 1.125 *. float_of_int truth then
        Alcotest.failf "%s reads %d us, exact %d us" name read truth)
    [ ("p50", 0.50, s.P.p50_us); ("p90", 0.90, s.P.p90_us); ("p99", 0.99, s.P.p99_us) ];
  check_int "max_us is exact" us.(Array.length us - 1) s.P.max_us

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let with_server cfg_of f =
  let path = tmp_socket () in
  let cfg = cfg_of (Service.Server.default_config (Service.Server.Unix_socket path)) in
  match Service.Server.start cfg with
  | Error e -> Alcotest.failf "server start: %s" (Dls.Errors.to_string e)
  | Ok server ->
    let r =
      match f server with
      | v -> v
      | exception exn ->
        Service.Server.stop server;
        raise exn
    in
    Service.Server.stop server;
    check "socket unlinked" false (Sys.file_exists path);
    r

let request_ok client req =
  match Service.Client.request client req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "request failed: %s" (Dls.Errors.to_string e)

let drain_invariant label (s : P.stats_rep) =
  check_int (label ^ ": inflight 0") 0 s.P.inflight;
  check_int (label ^ ": queue empty") 0 s.P.queue_depth;
  check_int
    (label ^ ": accepted = served + timed_out + failed + shed")
    s.P.accepted
    (s.P.served + s.P.timed_out + s.P.failed + s.P.shed)

let solve_req p =
  P.Solve
    {
      s_platform = p;
      s_order = P.Fifo;
      s_model = Dls.Lp_model.One_port;
      s_fast = true;
      s_load = Some (q "1000");
    }

(* ------------------------------------------------------------------ *)
(* Admission core: driven with a virtual clock, no socket, no sleep    *)
(* ------------------------------------------------------------------ *)

module A = Service.Admission

let core ?(jobs = 1) ?(capacity = 64) ?timeout ?(brownout = false) () =
  let m = Service.Metrics.create () in
  (A.create ~jobs ~capacity ?timeout ~brownout m, m)

let core_stats (c, m) = Service.Metrics.snapshot m ~queue_depth:(A.depth c)

(* Distinct platforms give distinct request keys. *)
let distinct_p i =
  platform [ ("1", "1", "1/2"); (Printf.sprintf "%d/101" (i + 1), "2", "1/2") ]

let admit c ~now req = A.admit c ~now (P.request_key req) req
let ok_reply = P.Ok_check { check_ok = true; violations = 0 }
let reply_str = P.response_to_string

let queued = function
  | A.Queued job -> job
  | A.Joined _ -> Alcotest.fail "expected queued, got joined"
  | A.Answered r -> Alcotest.failf "expected queued, got %s" (reply_str r)

let answered = function
  | A.Answered r -> reply_str r
  | A.Queued _ | A.Joined _ -> Alcotest.fail "expected an answer at admission"

let next_exn c =
  match A.next c with Some job -> job | None -> Alcotest.fail "expected a job"

(* Close [c] and finish every job still waiting, in order. *)
let drain_core c =
  A.close c;
  let rec go () =
    match A.next c with
    | Some job ->
      ignore (A.finish c job ~now:1e3 ~elapsed:0.001 (Ok ok_reply));
      go ()
    | None -> ()
  in
  go ()

let test_queue_basics () =
  let c, m = core ~jobs:2 ~capacity:2 () in
  let j1 = queued (admit c ~now:1. (solve_req (distinct_p 1))) in
  let j2 = queued (admit c ~now:2. (solve_req (distinct_p 2))) in
  check_str "third overloads"
    (reply_str (P.Overloaded { depth = 2; capacity = 2 }))
    (answered (admit c ~now:3. (solve_req (distinct_p 3))));
  check_int "depth" 2 (A.depth c);
  check "fifo next" true (next_exn c == j1);
  check "fifo next 2" true (next_exn c == j2);
  A.close c;
  check_str "admit after close"
    (reply_str (P.Failed (Dls.Errors.Io_error "server is draining")))
    (answered (admit c ~now:4. (solve_req (distinct_p 4))));
  check "next after close+drain" true (A.next c = None && A.drained c);
  List.iter (fun j -> ignore (A.finish c j ~now:5. ~elapsed:1. (Ok ok_reply))) [ j1; j2 ];
  let s = core_stats (c, m) in
  check_int "rejected" 2 s.P.rejected;
  drain_invariant "basics" s

let test_queue_close_drains () =
  let c, m = core ~jobs:1 () in
  let jobs =
    List.init 5 (fun i -> queued (admit c ~now:(float_of_int i) (solve_req (distinct_p i))))
  in
  A.close c;
  let rec go acc =
    match A.next c with
    | Some job ->
      check "one at a time" true (A.next c = None);
      let _, times = A.finish c job ~now:10. ~elapsed:1. (Ok ok_reply) in
      check "its own admission answered" true (times = [ job.A.admitted ]);
      go (job :: acc)
    | None -> List.rev acc
  in
  check "drained in admission order" true (List.for_all2 ( == ) jobs (go []));
  check_int "empty after the drain" 0 (A.depth c);
  drain_invariant "close drains" (core_stats (c, m))

(* The shell at [jobs = 4]: four evaluator loops take jobs from one
   core, and each of a stream of distinct keys is evaluated exactly
   once. *)
let test_queue_exactly_once () =
  let requests = 64 and seed = 2026 and distinct = 100_000 in
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 4; queue_capacity = 256 })
    (fun server ->
      match
        Service.Loadgen.run (Service.Server.address server) ~connections:8
          ~requests ~seed ~distinct ()
      with
      | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
      | Ok o ->
        check_int "every request ok" requests o.Service.Loadgen.ok;
        let s = Service.Server.stats server in
        check_int "one evaluation per request" requests s.P.batches;
        check_int "served" requests s.P.served;
        drain_invariant "exactly once" s)

(* The shell at [jobs >= 2]: evaluator loops waiting for work are woken
   by [stop], which returns once they are joined. *)
let test_queue_close_wakes_blocked_pop () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 3 })
    (fun server ->
      let address = Service.Server.address server in
      (match Service.Client.with_client address (fun cl -> request_ok cl (solve_req (p2 ()))) with
      | Ok r -> check "ok" true (P.is_ok r)
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e));
      Service.Server.stop server;
      drain_invariant "stopped idle" (Service.Server.stats server))

(* The shell at [jobs = 1]: connection threads evaluate in turn
   (caller-runs) under a small bound; every request is answered once,
   by one evaluation. *)
let test_queue_concurrent () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 1; queue_capacity = 2 })
    (fun server ->
      let address = Service.Server.address server in
      let producers = 4 and per_producer = 25 in
      let overloaded = Atomic.make 0 in
      let producer p () =
        match
          Service.Client.with_client address (fun cl ->
              for i = 0 to per_producer - 1 do
                let req = solve_req (distinct_p ((p * per_producer) + i)) in
                let rec send () =
                  match request_ok cl req with
                  | P.Overloaded _ ->
                    Atomic.incr overloaded;
                    Thread.yield ();
                    send ()
                  | r when P.is_ok r -> ()
                  | other -> Alcotest.failf "unexpected %s" (reply_str other)
                in
                send ()
              done)
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "producer %d: %s" p (Dls.Errors.to_string e)
      in
      let ts = Array.init producers (fun p -> Thread.create (producer p) ()) in
      Array.iter Thread.join ts;
      let s = Service.Server.stats server in
      let total = producers * per_producer in
      check_int "served" total s.P.served;
      check_int "one evaluation each" total s.P.batches;
      check_int "rejected = overloaded replies" (Atomic.get overloaded) s.P.rejected;
      drain_invariant "concurrent" s)

(* Seeded random sequences of admit / next / finish / close, with
   random durations, then the drain.  Checked: the drain invariant, at
   most [jobs] evaluations at once, a free slot never left idle while a
   job waits, evaluations in admission order, and every admission that
   was queued or joined answered exactly once. *)
let core_ops_property =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (8, map (fun k -> `Admit k) (int_range 0 5));
        (6, pure `Next);
        ( 6,
          map3
            (fun k elapsed raised -> `Finish (k, elapsed, raised))
            (int_range 0 2) (oneofl [ 0.001; 0.02; 0.08 ]) bool );
        (1, pure `Close);
      ]
  in
  let gen =
    tup5 (int_range 1 3) (int_range 1 4) (option (pure 0.05)) bool
      (list_size (int_range 0 60) op)
  in
  let print (jobs, capacity, timeout, brownout, ops) =
    Printf.sprintf "jobs=%d capacity=%d timeout=%s brownout=%b [%s]" jobs capacity
      (match timeout with Some b -> string_of_float b | None -> "none")
      brownout
      (String.concat "; "
         (List.map
            (function
              | `Admit k -> Printf.sprintf "admit %d" k
              | `Next -> "next"
              | `Close -> "close"
              | `Finish (k, e, r) -> Printf.sprintf "finish %d %g%s" k e (if r then " raised" else ""))
            ops))
  in
  let reqs = Array.init 6 (fun i -> solve_req (distinct_p i)) in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 38 |])
    (QCheck2.Test.make ~count:500 ~name:"qcheck op sequences" ~print gen
       (fun (jobs, capacity, timeout, brownout, ops) ->
         let c, m = core ~jobs ~capacity ?timeout ~brownout () in
         let running = ref [] and handed = ref [] in
         let owed = ref [] and paid = ref [] in
         let fail fmt = QCheck2.Test.fail_reportf fmt in
         let finish job ~now ~elapsed raised =
           running := List.filter (fun j -> j != job) !running;
           let failed = P.Failed (Dls.Errors.Invalid_scenario "raised") in
           let outcome = if raised then Error failed else Ok ok_reply in
           let resp, times = A.finish c job ~now ~elapsed outcome in
           (match (raised, timeout) with
           | true, _ -> if resp <> failed then fail "a raised evaluation did not stay failed"
           | false, Some b when elapsed > b ->
             if resp <> P.Timed_out { budget = b } then fail "no timeout verdict"
           | false, _ -> if not (P.is_ok resp) then fail "an ok evaluation failed");
           paid := times @ !paid
         in
         let next () =
           match A.next c with
           | Some job ->
             running := !running @ [ job ];
             handed := job.A.admitted :: !handed;
             if List.length !running > jobs then fail "%d evaluations at once" (List.length !running)
           | None ->
             if List.length !running < jobs && A.depth c > 0 then
               fail "a slot idles while %d jobs wait" (A.depth c)
         in
         List.iteri
           (fun i op ->
             let now = float_of_int i in
             match op with
             | `Admit k -> (
               match admit c ~now reqs.(k) with
               | A.Queued _ | A.Joined _ -> owed := now :: !owed
               | A.Answered _ -> ())
             | `Next -> next ()
             | `Close -> A.close c
             | `Finish (k, elapsed, raised) -> (
               match !running with
               | [] -> ()
               | l -> finish (List.nth l (k mod List.length l)) ~now ~elapsed raised))
           ops;
         A.close c;
         let rec drain () =
           match !running with
           | job :: _ ->
             finish job ~now:1e3 ~elapsed:0.001 false;
             drain ()
           | [] ->
             next ();
             if !running <> [] then drain ()
         in
         drain ();
         let s = core_stats (c, m) in
         let order = List.rev !handed in
         if order <> List.sort compare order then fail "evaluated out of admission order";
         if List.sort compare !owed <> List.sort compare !paid then
           fail "admissions %d, answers %d" (List.length !owed) (List.length !paid);
         if not (A.drained c) then fail "not drained";
         s.P.inflight = 0 && s.P.queue_depth = 0
         && s.P.accepted = s.P.served + s.P.timed_out + s.P.failed + s.P.shed))

let test_server_solve_bit_identical () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2 })
    (fun server ->
      let address = Service.Server.address server in
      let p = p3 () in
      let resp =
        match Service.Client.with_client address (fun cl -> request_ok cl (solve_req p)) with
        | Ok r -> r
        | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
      in
      let direct =
        Dls.Solve.solve_exn ~mode:`Exact
          (Dls.Scenario.fifo_exn p (Dls.Fifo.order p))
      in
      match resp with
      | P.Ok_solve r ->
        check_str "rho bit-identical" (Q.to_string direct.Dls.Lp_model.rho)
          (Q.to_string r.P.rho);
        Array.iteri
          (fun i a ->
            check_str
              (Printf.sprintf "alpha.(%d) bit-identical" i)
              (Q.to_string direct.Dls.Lp_model.alpha.(i))
              (Q.to_string a))
          r.P.alpha;
        check_int "idle length" (Array.length direct.Dls.Lp_model.idle)
          (Array.length r.P.idle);
        Array.iteri
          (fun i x ->
            check_str
              (Printf.sprintf "idle.(%d) bit-identical" i)
              (Q.to_string direct.Dls.Lp_model.idle.(i))
              (Q.to_string x))
          r.P.idle;
        check_str "makespan = time_for_load"
          (Q.to_string (Dls.Lp_model.time_for_load direct ~load:(q "1000")))
          (Q.to_string (Option.get r.P.makespan))
      | other ->
        Alcotest.failf "expected ok solve, got %s" (P.response_to_string other))

let test_server_single_flight_collapse () =
  let c, m = core ~jobs:2 () in
  let req = solve_req (p2 ()) in
  let job = queued (admit c ~now:0. req) in
  for i = 1 to 9 do
    match admit c ~now:(float_of_int i) req with
    | A.Joined j -> check "joins the job in flight" true (j == job)
    | _ -> Alcotest.fail "duplicate not joined"
  done;
  check_int "duplicates take no slot" 1 (A.depth c);
  check "its evaluation starts" true (next_exn c == job);
  (match admit c ~now:10. req with
  | A.Joined j -> check "joins while running" true (j == job)
  | _ -> Alcotest.fail "duplicate of a running job not joined");
  let resp, times = A.finish c job ~now:11. ~elapsed:1. (Ok ok_reply) in
  check_str "one verdict" (reply_str ok_reply) (reply_str resp);
  check "every admission answered once" true
    (List.sort compare times = List.init 11 float_of_int);
  (* Answered keys leave single flight: the next copy is a new job. *)
  let again = queued (admit c ~now:12. req) in
  check "a new job" true (again != job);
  drain_core c;
  let s = core_stats (c, m) in
  check_int "collapsed" 10 s.P.collapsed;
  check_int "served" 12 s.P.served;
  check_int "two evaluations" 2 s.P.batches;
  check_int "the largest answered eleven" 11 s.P.max_batch;
  drain_invariant "collapse" s

let test_server_overload () =
  let c, m = core ~jobs:1 ~capacity:2 () in
  let reqs = Array.init 12 (fun i -> solve_req (distinct_p i)) in
  let running = queued (admit c ~now:0. reqs.(0)) in
  ignore (next_exn c);
  ignore (queued (admit c ~now:1. reqs.(1)));
  ignore (queued (admit c ~now:2. reqs.(2)));
  for i = 3 to 11 do
    check_str
      (Printf.sprintf "request %d overloaded" i)
      (reply_str (P.Overloaded { depth = 2; capacity = 2 }))
      (answered (admit c ~now:(float_of_int i) reqs.(i)))
  done;
  ignore (A.finish c running ~now:12. ~elapsed:1. (Ok ok_reply));
  drain_core c;
  let s = core_stats (c, m) in
  check_int "rejected = overloaded replies" 9 s.P.rejected;
  check_int "served = the running job and the two queued" 3 s.P.served;
  drain_invariant "overload" s

(* One request evaluated in a fresh core with [timeout], taking
   [elapsed] and ending in [outcome]; returns the reply and the core. *)
let one_verdict ?timeout ~elapsed outcome =
  let c, m = core ?timeout () in
  let job = queued (admit c ~now:0. (solve_req (p2 ()))) in
  ignore (next_exn c);
  let resp, _ = A.finish c job ~now:elapsed ~elapsed outcome in
  (reply_str resp, (c, m))

let test_server_timeout () =
  let reply, (c, m) = one_verdict ~timeout:0.005 ~elapsed:0.03 (Ok ok_reply) in
  check_str "an overrun answers timeout"
    (reply_str (P.Timed_out { budget = 0.005 })) reply;
  (* the overrun seeded the predictor, so a second request is shed
     instead of queued to die *)
  check_str "the next one is shed"
    (reply_str (P.Shed { wait = 0.03; budget = 0.005 }))
    (answered (admit c ~now:1. (solve_req (p3 ()))));
  let s = core_stats (c, m) in
  check_int "first timed out" 1 s.P.timed_out;
  check_int "second shed" 1 s.P.shed;
  drain_invariant "timeout" s;
  let failed = P.Failed (Dls.Errors.Invalid_scenario "raised") in
  let reply, (c, m) = one_verdict ~timeout:0.01 ~elapsed:0.05 (Error failed) in
  check_str "a raised evaluation stays failed past its budget" (reply_str failed) reply;
  check_int "counted failed" 1 (core_stats (c, m)).P.failed;
  check_str "within budget" (reply_str ok_reply)
    (fst (one_verdict ~timeout:60. ~elapsed:0.05 (Ok ok_reply)));
  check_str "no budget" (reply_str ok_reply)
    (fst (one_verdict ~elapsed:1e6 (Ok ok_reply)))

(* The shell drains under load at either [jobs]: clients keep sending
   distinct exact solves until the stop refuses them; everything
   admitted is answered. *)
let test_server_drain_under_load ~jobs () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs; queue_capacity = 32 })
    (fun server ->
      let address = Service.Server.address server in
      let clients = 8 in
      let answered = Atomic.make 0 in
      let worker i () =
        ignore
          (Service.Client.with_client address (fun cl ->
               let rec loop k =
                 let p = distinct_p ((100 * i) + k) in
                 match
                   Service.Client.request cl
                     (P.Solve
                        {
                          s_platform = p;
                          s_order = P.Fifo;
                          s_model = Dls.Lp_model.Two_port;
                          s_fast = false;
                          s_load = None;
                        })
                 with
                 | Ok r when P.is_ok r ->
                   Atomic.incr answered;
                   if k < 99 then loop (k + 1)
                 (* a refusal while draining, or the shut connection:
                    a clean refusal, not a lost in-flight request *)
                 | Ok _ | Error _ -> ()
               in
               loop 0))
      in
      let ts = Array.init clients (fun i -> Thread.create (worker i) ()) in
      (* let some requests get in flight, then drain concurrently *)
      Thread.delay 0.03;
      Service.Server.stop server;
      Array.iter Thread.join ts;
      let s = Service.Server.stats server in
      drain_invariant "drain" s;
      check "every admitted request was answered" true
        (Atomic.get answered >= s.P.served);
      check "progress before the drain" true (s.P.served >= 1))

let test_server_malformed_and_inline () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 1 })
    (fun server ->
      let address = Service.Server.address server in
      let outcome =
        Service.Client.with_client address (fun cl ->
            let bad =
              match Service.Client.request_raw cl "solve 1:x:1" with
              | Ok (P.Failed (Dls.Errors.Parse_error { col; _ })) -> col
              | Ok other ->
                Alcotest.failf "expected parse error, got %s"
                  (P.response_to_string other)
              | Error e -> Alcotest.failf "transport: %s" (Dls.Errors.to_string e)
            in
            check_int "parse error column" 9 bad;
            (* the connection survives the malformed line *)
            (match request_ok cl P.Health with
            | P.Ok_health h ->
              check "healthy" true h.P.healthy;
              check "not draining" false h.P.draining
            | other ->
              Alcotest.failf "expected health, got %s" (P.response_to_string other));
            match request_ok cl P.Stats with
            | P.Ok_stats s -> s
            | other ->
              Alcotest.failf "expected stats, got %s" (P.response_to_string other))
      in
      match outcome with
      | Ok s ->
        check_int "malformed counted" 1 s.P.malformed;
        check_int "nothing admitted" 0 s.P.accepted
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

let test_loadgen_deterministic () =
  let render seed =
    Array.init 60 (fun i ->
        P.request_to_string (Service.Loadgen.request ~seed ~distinct:5 i))
  in
  check "same seed, same stream" true (render 7 = render 7);
  check "different seed, different stream" true (render 7 <> render 8);
  (* jobs-invariant mix: the stream touches solve, and the kind of
     request i is independent of who sends it *)
  let kinds =
    Array.to_list (render 7)
    |> List.map (fun line -> List.hd (String.split_on_char ' ' line))
    |> List.sort_uniq compare
  in
  check "solve present" true (List.mem "solve" kinds)

(* MD5 digests of seeded prefixes of the request stream (rendered on
   the wire) and of the arrival schedule (hex floats), recorded from the
   load generator before its closed and open loops became one driver:
   the streams are part of every benchmark and smoke job, so a driver
   change must leave them bit-identical. *)
let test_loadgen_streams_pinned () =
  let requests ?multi ?skew ~seed ~distinct n =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.init n (fun i ->
                 P.request_to_string
                   (Service.Loadgen.request ?multi ?skew ~seed ~distinct i)))))
  in
  let arrivals ~seed ~rps n =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (Array.to_list
               (Array.map (Printf.sprintf "%h")
                  (Service.Loadgen.arrivals ~seed ~rps n)))))
  in
  check_str "uniform, seed 1" "24828f3d4703aeafd91d7b7e4ca49800"
    (requests ~seed:1 ~distinct:5 300);
  check_str "uniform, seed 2026" "b3dc9104354a637bf49387f1ddc138fe"
    (requests ~seed:2026 ~distinct:6 300);
  check_str "multi" "d8d2e50770fc7351a8dccf5cc20b2da6"
    (requests ~multi:true ~seed:3 ~distinct:40 300);
  check_str "skewed" "a102c86124480b65b228080474500cd8"
    (requests ~skew:1.2 ~seed:3 ~distinct:8 300);
  check_str "arrivals, 100 rps" "cd22e85fdd1d0e58a3fc44390a2a1f9e"
    (arrivals ~seed:7 ~rps:100. 500);
  check_str "arrivals, 400 rps" "bf8cac62385dacc2d579cdab1b30ca60"
    (arrivals ~seed:1 ~rps:400. 500)

let test_loadgen_against_server () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      { c with Service.Server.jobs = 2; queue_capacity = 64 })
    (fun server ->
      let address = Service.Server.address server in
      match
        Service.Loadgen.run address ~connections:3 ~requests:30 ~seed:1
          ~distinct:5 ()
      with
      | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
      | Ok o ->
        check_int "all sent" 30 o.Service.Loadgen.sent;
        check_int "every request answered" 30
          (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
          + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
          + o.Service.Loadgen.failed);
        check "mostly ok" true (o.Service.Loadgen.ok >= 25);
        check_int "no failures" 0 o.Service.Loadgen.failed;
        check "closed loop: no offered rate, no lag" true
          (o.Service.Loadgen.offered_rps = 0. && o.Service.Loadgen.max_lag_ms = 0.);
        let s = Service.Server.stats server in
        drain_invariant "loadgen" s)

let test_server_multi_dispatcher () =
  (* Four evaluators over a skewed stream: every request still gets
     exactly one answer and the drain invariant holds. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 4; queue_capacity = 64 })
    (fun server ->
      let address = Service.Server.address server in
      match
        Service.Loadgen.run ~skew:1.2 address ~connections:6 ~requests:60
          ~seed:5 ~distinct:8 ()
      with
      | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
      | Ok o ->
        check_int "every request answered" 60
          (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
          + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
          + o.Service.Loadgen.failed);
        check_int "no failures" 0 o.Service.Loadgen.failed;
        drain_invariant "multi-evaluator" (Service.Server.stats server))

(* Drive a core in virtual time: [n] distinct requests arrive at 0,
   each evaluation takes [d] seconds, and a slot is refilled the moment
   it frees.  Returns when the last reply is written and the most
   evaluations that ran at once. *)
let virtual_stream ~jobs ~d n =
  let c, m = core ~jobs ~capacity:n () in
  for i = 0 to n - 1 do
    ignore (queued (admit c ~now:0. (solve_req (distinct_p i))))
  done;
  let rec go clock running peak =
    let rec fill running =
      match A.next c with
      | Some job -> fill (running @ [ (clock +. d, job) ])
      | None -> running
    in
    match fill running with
    | [] -> (clock, peak, (c, m))
    | ((until, job) :: _ as running) ->
      ignore (A.finish c job ~now:until ~elapsed:d (Ok ok_reply));
      go until (List.tl running) (max peak (List.length running))
  in
  go 0. [] 0

let test_server_evaluators_overlap () =
  (* 1/64 s sums exactly in binary floating point. *)
  let d = 1. /. 64. and n = 40 in
  let single, peak1, c1 = virtual_stream ~jobs:1 ~d n in
  let four, peak4, c4 = virtual_stream ~jobs:4 ~d n in
  check_int "one evaluator runs one at a time" 1 peak1;
  check_int "four keep four in flight" 4 peak4;
  check "one evaluator: back to back" true (single = float_of_int n *. d);
  check "four: ten waves" true (four = 10. *. d);
  drain_invariant "one" (core_stats c1);
  drain_invariant "four" (core_stats c4)

(* A slow request for the head-of-line tests: an exact ([fast=false])
   two-port FIFO solve of a fixed 80-worker platform, 0.7-0.8 s on a
   2-vCPU VM. *)
let slow_req () =
  P.Solve
    {
      s_platform =
        platform (List.init 80 (fun i -> ("1", string_of_int (1 + (i mod 10)), "1/2")));
      s_order = P.Fifo;
      s_model = Dls.Lp_model.Two_port;
      s_fast = false;
      s_load = None;
    }

(* [send_at ~delay address req] sends [req] on its own connection after
   [delay] seconds, in a thread; [join] returns its reply and the
   monotonic time it arrived. *)
let send_at ~delay address req =
  let result = ref None in
  let th =
    Thread.create
      (fun () ->
        Thread.delay delay;
        result :=
          Some
            (match Service.Client.with_client address (fun cl -> request_ok cl req) with
            | Ok r -> (P.response_to_string r, Parallel.Clock.now ())
            | Error e -> (Dls.Errors.to_string e, Parallel.Clock.now ())))
      ()
  in
  fun () ->
    Thread.join th;
    Option.get !result

let test_server_slow_does_not_stall_fast () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2 })
    (fun server ->
      let address = Service.Server.address server in
      let t0 = Parallel.Clock.now () in
      let slow = send_at ~delay:0. address (slow_req ()) in
      let fast = send_at ~delay:0.05 address (solve_req (p2 ())) in
      let fast_reply, fast_at = fast () in
      let slow_reply, slow_at = slow () in
      check "p=2 reply ok" true (String.sub fast_reply 0 3 = "ok ");
      check "slow reply ok" true (String.sub slow_reply 0 3 = "ok ");
      Printf.printf "p=2 answered at %.3fs, the slow solve at %.3fs\n"
        (fast_at -. t0) (slow_at -. t0);
      (* First, and by a margin: a server that runs the p=2 solve only
         once the slow one is done can still write its reply a hair
         before the slow one's. *)
      check "the p=2 reply arrives first, before the slow solve is half done"
        true
        (fast_at -. t0 < 0.5 *. (slow_at -. t0));
      drain_invariant "head of line" (Service.Server.stats server))

let test_server_duplicates_join ~jobs () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs })
    (fun server ->
      let address = Service.Server.address server in
      let first = send_at ~delay:0. address (slow_req ()) in
      let rest = List.init 4 (fun _ -> send_at ~delay:0.05 address (slow_req ())) in
      let replies = List.map (fun join -> fst (join ())) (first :: rest) in
      let r0 = List.hd replies in
      check "reply is ok" true (String.sub r0 0 3 = "ok ");
      List.iter (check_str "byte-identical replies" r0) replies;
      let s = Service.Server.stats server in
      check_int "one evaluation" 1 s.P.batches;
      check_int "four joined it" 4 s.P.collapsed;
      check_int "it answered all five" 5 s.P.max_batch;
      drain_invariant "join" s)

let test_loadgen_skew () =
  (* Same seed, same skewed stream — request by request. *)
  let stream skew =
    Array.init 120 (fun i ->
        P.request_key (Service.Loadgen.request ~skew ~seed:3 ~distinct:8 i))
  in
  check "skewed stream deterministic" true (stream 1.5 = stream 1.5);
  (* skew = 0 is the classic uniform stream, bit for bit *)
  let classic =
    Array.init 120 (fun i ->
        P.request_key (Service.Loadgen.request ~seed:3 ~distinct:8 i))
  in
  check "skew 0 = classic stream" true (stream 0. = classic);
  (* A strong skew concentrates traffic: the most popular key must take
     a clearly larger share than under the uniform draw. *)
  let top_share keys =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun k ->
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      keys;
    Hashtbl.fold (fun _ n acc -> max n acc) tbl 0
  in
  check "skew concentrates the head" true
    (top_share (stream 2.) > top_share classic)

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

module W = Service.Wire

let test_wire_byte_at_a_time () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = "first line\nsecond\r\nunterminated tail" in
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun c ->
            ignore (Unix.write_substring a (String.make 1 c) 0 1);
            Thread.yield ())
          payload;
        Unix.close a)
      ()
  in
  let r = W.reader b in
  (match W.read_line r with
  | W.Line l -> check_str "line reassembled from 1-byte reads" "first line" l
  | _ -> Alcotest.fail "expected first line");
  (match W.read_line r with
  | W.Line l -> check_str "trailing \\r stripped" "second" l
  | _ -> Alcotest.fail "expected second line");
  (match W.read_line r with
  | W.Eof_mid_line -> ()
  | W.Line l -> Alcotest.failf "partial tail delivered as a line: %S" l
  | _ -> Alcotest.fail "expected eof mid-line");
  Thread.join writer;
  Unix.close b

let test_wire_read_deadline () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = W.reader b in
  (match W.read_line ~deadline_s:0.02 r with
  | W.Deadline -> ()
  | _ -> Alcotest.fail "expected deadline on a silent peer");
  (* a partial line before the deadline is kept, not delivered *)
  ignore (Unix.write_substring a "par" 0 3);
  (match W.read_line ~deadline_s:0.02 r with
  | W.Deadline -> ()
  | _ -> Alcotest.fail "expected deadline on a partial line");
  ignore (Unix.write_substring a "tial\n" 0 5);
  (match W.read_line r with
  | W.Line l -> check_str "buffered prefix survives the deadline" "partial" l
  | _ -> Alcotest.fail "expected the completed line");
  Unix.close a;
  (match W.read_line r with
  | W.Eof -> ()
  | _ -> Alcotest.fail "expected eof at a line boundary");
  Unix.close b

let test_server_kill_mid_line () =
  (* A client that vanishes half-way through a request line must be
     counted as a hangup and must not take the server down. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 1 })
    (fun server ->
      let address = Service.Server.address server in
      let path =
        match address with
        | Service.Server.Unix_socket p -> p
        | Service.Server.Tcp _ -> Alcotest.fail "expected a unix socket"
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      ignore (Unix.write_substring fd "solve 1:1:1/2," 0 14);
      Unix.close fd;
      (* the connection thread notices asynchronously *)
      let t0 = Parallel.Clock.now () in
      let rec wait () =
        let s = Service.Server.stats server in
        if s.P.hangups >= 1 || Parallel.Clock.elapsed_s ~since:t0 > 2. then s
        else begin
          Thread.delay 0.005;
          wait ()
        end
      in
      let s = wait () in
      check_int "mid-line hangup counted" 1 s.P.hangups;
      check_int "nothing admitted" 0 s.P.accepted;
      match
        Service.Client.with_client address (fun cl -> request_ok cl P.Health)
      with
      | Ok (P.Ok_health h) -> check "server survives the hangup" true h.P.healthy
      | Ok other ->
        Alcotest.failf "expected health, got %s" (P.response_to_string other)
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Journal: the store's record file                                    *)
(* ------------------------------------------------------------------ *)

module St = Service.Store

let tmp_journal () = Filename.temp_file "dls-journal" ".log"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then Alcotest.failf "substring %S not found" needle
    else if String.sub haystack i n = needle then i
    else go (i + 1)
  in
  go 0

let store_open path =
  match St.open_ path with
  | Ok s -> s
  | Error e -> Alcotest.failf "store open: %s" (Dls.Errors.to_string e)

let store_add s ~key ~value =
  match St.add s ~key ~value with
  | Ok () -> ()
  | Error e -> Alcotest.failf "store add: %s" (Dls.Errors.to_string e)

let seed_journal path records =
  let s = store_open path in
  check_int "fresh store is empty" 0 (St.length s);
  List.iter (fun (key, value) -> store_add s ~key ~value) records;
  check_int "appends counted" (List.length records) (St.stats s).St.appended;
  St.close s

(* [records] are exactly the records a fresh handle on [path] serves. *)
let check_served name path records =
  let s = store_open path in
  check_int (name ^ ": record count") (List.length records) (St.length s);
  List.iter
    (fun (key, value) ->
      check (name ^ ": " ^ key) true (St.find s key = Some value))
    records;
  St.close s

let sample_records =
  [
    ("solve 1:1:1/2,1:2:1/2", "ok rho=3/4 alpha=1/2,1/4");
    ("check 1:1:1/2", "ok check valid=true violations=0");
    ("solve 2:1:1,1:3:1/2 load=1000", "ok rho=5/8 alpha=1/3,2/3 makespan=1600");
  ]

let test_journal_roundtrip () =
  let path = tmp_journal () in
  seed_journal path sample_records;
  check_served "reopened" path sample_records;
  let s = store_open path in
  (* payloads must stay single-line: the record framing depends on it *)
  (match St.add s ~key:"bad\nkey" ~value:"v" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "newline-bearing key accepted");
  (match St.add s ~key:"key" ~value:"bad\nvalue" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "newline-bearing value accepted");
  check_int "rejected adds not counted" 0 (St.stats s).St.appended;
  St.close s;
  Sys.remove path

let test_journal_truncated_tail () =
  let path = tmp_journal () in
  seed_journal path sample_records;
  (* crash mid-append: a torn record at the tail *)
  let good = read_file path in
  let torn = good ^ "rec deadbeef 17 42\nsolve 3:1:1,2:" in
  write_file path torn;
  let s = store_open path in
  check_int "torn tail costs nothing before it" 3 (St.length s);
  check_str "opening leaves the file alone" torn (read_file path);
  (* the next add truncates back to the last good boundary, then
     appends where every scanner reaches *)
  store_add s ~key:"late" ~value:"ok late";
  St.close s;
  let repaired = read_file path in
  check_str "tear cut before the new record" good
    (String.sub repaired 0 (String.length good));
  check_served "post-repair" path (sample_records @ [ ("late", "ok late") ]);
  Sys.remove path

let test_journal_crc_corruption () =
  let path = tmp_journal () in
  seed_journal path sample_records;
  (* flip one payload byte of the middle record: lengths and terminators
     still line up, only the checksum disagrees *)
  let contents = read_file path in
  let i = find_sub contents "check 1:1:1/2" in
  let corrupted = Bytes.of_string contents in
  Bytes.set corrupted i 'X';
  write_file path (Bytes.to_string corrupted);
  check_served "scan stops at the first bad checksum" path
    [ List.hd sample_records ];
  let s = store_open path in
  check "records past the bad one are unreachable" true
    (St.find s (fst (List.nth sample_records 2)) = None);
  St.close s;
  Sys.remove path

let test_journal_crc32_vector () =
  (* IEEE 802.3 check value: crc32("123456789") = 0xCBF43926. *)
  check_str "crc32 known-answer" "cbf43926"
    (Printf.sprintf "%08x" (St.crc32 "123456789"))

(* ------------------------------------------------------------------ *)
(* Graceful degradation: shed, brownout, warm restart                  *)
(* ------------------------------------------------------------------ *)

let test_server_shed () =
  let reply, (c, m) = one_verdict ~timeout:0.04 ~elapsed:0.05 (Ok ok_reply) in
  check_str "50 ms of work against a 40 ms budget times out"
    (reply_str (P.Timed_out { budget = 0.04 })) reply;
  (* even at depth 0 the predicted service time alone blows the
     budget *)
  check_str "the next one is shed at admission"
    (reply_str (P.Shed { wait = 0.05; budget = 0.04 }))
    (answered (admit c ~now:1. (solve_req (p3 ()))));
  let s = core_stats (c, m) in
  check_int "one timed out" 1 s.P.timed_out;
  check_int "one shed" 1 s.P.shed;
  check_int "shed counts as accepted" 2 s.P.accepted;
  drain_invariant "shed" s;
  (* The prediction grows with the queue: service EWMA x (queued + 1) /
     jobs.  At 30 ms and two evaluators, six fit a 100 ms budget. *)
  let c, m = core ~jobs:2 ~timeout:0.1 () in
  let seed = queued (admit c ~now:0. (solve_req (p2 ()))) in
  ignore (next_exn c);
  ignore (A.finish c seed ~now:0.03 ~elapsed:0.03 (Ok ok_reply));
  for i = 0 to 5 do
    ignore (queued (admit c ~now:1. (solve_req (distinct_p i))))
  done;
  check_str "the seventh is shed"
    (reply_str (P.Shed { wait = 0.03 *. 7. /. 2.; budget = 0.1 }))
    (answered (admit c ~now:1. (solve_req (distinct_p 6))));
  drain_core c;
  drain_invariant "queue-aware shed" (core_stats (c, m))

(* An exact ([fast=false]) solve, which brownout moves onto the
   certified fast pipeline. *)
let exact_solve_req p =
  P.Solve
    {
      s_platform = p;
      s_order = P.Fifo;
      s_model = Dls.Lp_model.One_port;
      s_fast = false;
      s_load = None;
    }

let test_server_brownout () =
  Dls.Lp_model.reset_cache ();
  let c, m = core ~capacity:8 ~brownout:true () in
  let admitted = ref 0 in
  let admit_one () =
    ignore (queued (admit c ~now:0. (exact_solve_req (distinct_p !admitted))));
    incr admitted
  in
  let downgraded = ref 0 in
  (* Evaluate the head through the daemon's own evaluation, under the
     core's brownout flag: every answer is bit-identical to the exact
     solver's. *)
  let evaluate_head () =
    let job = next_exn c in
    let brownout = A.browned_out c in
    if brownout then incr downgraded;
    let resp = Service.Server.evaluate ~brownout job.A.request in
    (match (job.A.request, resp) with
    | P.Solve r, P.Ok_solve s ->
      let p = r.P.s_platform in
      let direct =
        Dls.Solve.solve_exn ~mode:`Exact (Dls.Scenario.fifo_exn p (Dls.Fifo.order p))
      in
      check_str "brownout answers bit-identical"
        (Q.to_string direct.Dls.Lp_model.rho) (Q.to_string s.P.rho);
      Array.iteri
        (fun i a ->
          check_str "alpha bit-identical" (Q.to_string direct.Dls.Lp_model.alpha.(i))
            (Q.to_string a))
        s.P.alpha
    | _, other -> Alcotest.failf "expected ok solve, got %s" (reply_str other));
    ignore (A.finish c job ~now:1. ~elapsed:0.001 (Ok resp))
  in
  for _ = 1 to 8 do admit_one () done;
  (* Three evaluations ending above 3/4 of capacity switch it on. *)
  for k = 1 to 3 do
    check (Printf.sprintf "off before evaluation %d" k) false (A.browned_out c);
    evaluate_head ();
    admit_one ()
  done;
  check "on after three under pressure" true (A.browned_out c);
  check_int "one activation" 1 (core_stats (c, m)).P.brownouts;
  (* Draining: between 1/4 and 3/4 both streaks reset; three
     evaluations ending at or below 1/4 (depth 2, 1, 0) switch it off. *)
  while A.depth c > 0 do
    check "still on while the queue drains" true (A.browned_out c);
    evaluate_head ()
  done;
  check "off after three at or below 1/4" false (A.browned_out c);
  check "some evaluations ran browned out" true (!downgraded >= 1);
  let s = core_stats (c, m) in
  check_int "still one activation" 1 s.P.brownouts;
  check_int "every request served" !admitted s.P.served;
  drain_invariant "brownout" s

(* A faulted [simulate] reports the exact re-planner's completed load.
   The LP schedule meets its deadline exactly, so a float trace checked
   against a float deadline drops whole returns on one ulp of rounding
   (this request used to answer achieved=49.51 against the exact
   302450005/4134842 = 73.15). *)
let test_server_faulted_simulate_exact () =
  let line =
    "simulate 1/10:1:1/20,1/5:2:1/10,1/3:1:1/6 order=fifo items=100 \
     faults=crash:2:1/20"
  in
  let req =
    match P.parse_request ~line:1 line with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" (Dls.Errors.to_string e)
  in
  let r = match req with P.Simulate r -> r | _ -> Alcotest.fail "not a simulate" in
  let faults = Option.get r.P.m_faults in
  let load = Q.of_int r.P.m_items in
  let outcome =
    Dls.Replan.respond_exn faults (Dls.Fifo.optimal r.P.m_platform) ~load
  in
  let done_ = outcome.Dls.Replan.achieved.Dls.Replan.done_by_deadline in
  with_server Fun.id (fun server ->
      match
        Service.Client.with_client (Service.Server.address server) (fun cl ->
            request_ok cl req)
      with
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
      | Ok (P.Ok_simulate s) ->
        Alcotest.(check (option (float 0.0)))
          "achieved" (Some (Q.to_float done_)) s.P.achieved;
        Alcotest.(check (option (float 0.0)))
          "achieved_ratio"
          (Some (Q.to_float (Q.div done_ load)))
          s.P.achieved_ratio
      | Ok resp -> Alcotest.failf "unexpected reply %s" (P.response_to_string resp))

let test_server_journal_warm_restart () =
  Dls.Lp_model.reset_cache ();
  let journal = tmp_journal () in
  let reqs = [ solve_req (p2 ()); solve_req (p3 ()) ] in
  let first_replies =
    with_server
      (fun c -> { c with Service.Server.jobs = 2; store = Some journal })
      (fun server ->
        let address = Service.Server.address server in
        let replies =
          match
            Service.Client.with_client address (fun cl ->
                List.map
                  (fun r -> P.response_to_string (request_ok cl r))
                  reqs)
          with
          | Ok r -> r
          | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
        in
        let s = Service.Server.stats server in
        check_int "unique responses appended" 2 s.P.journal_appended;
        check_int "fresh store has nothing to hit" 0 s.P.store_hits;
        check_int "no warm hits before a restart" 0 s.P.warm_hits;
        replies)
  in
  let appended_bytes = String.length (read_file journal) in
  (* restart on the same file: the first repeat reads the store, the
     second is a tier-1 hit, and neither writes anything *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2; store = Some journal })
    (fun server ->
      let address = Service.Server.address server in
      let replies =
        match
          Service.Client.with_client address (fun cl ->
              List.init 2 (fun _ ->
                  P.response_to_string (request_ok cl (List.hd reqs))))
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
      in
      List.iter
        (check_str "reply bit-identical across the restart"
           (List.hd first_replies))
        replies;
      let s = Service.Server.stats server in
      check_int "first repeat was a store hit" 1 s.P.store_hits;
      check_int "second repeat was a warm hit" 1 s.P.warm_hits;
      check_int "both served at admission" 2 s.P.served;
      check_int "nothing re-appended" 0 s.P.journal_appended;
      drain_invariant "warm restart" s);
  check_int "file unchanged by the restart" appended_bytes
    (String.length (read_file journal));
  Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Resilient client                                                    *)
(* ------------------------------------------------------------------ *)

module R = Service.Resilient

let test_resilient_breaker_lifecycle () =
  Dls.Lp_model.reset_cache ();
  let path = tmp_socket () in
  let address = Service.Server.Unix_socket path in
  let client =
    R.create
      {
        (R.default_config address) with
        R.attempts = 2;
        attempt_timeout = Some 0.05;
        backoff_base = 0.001;
        backoff_max = 0.002;
        breaker_threshold = 2;
        breaker_cooldown = 0.15;
      }
  in
  (* nothing listens: both attempts fail, tripping the breaker *)
  (match R.request client P.Health with
  | Error _ -> ()
  | Ok r ->
    Alcotest.failf "request against a dead socket succeeded: %s"
      (P.response_to_string r));
  check "breaker tripped open" true (R.breaker client = R.Breaker_open);
  let st = R.stats client in
  check_int "one trip counted" 1 st.R.breaker_opens;
  check "a retry was counted" true (st.R.retries >= 1);
  (* while open: refused locally, without touching the network *)
  (match R.request client P.Health with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "open breaker let a request through");
  check_int "fast-fail counted" 1 (R.stats client).R.fast_fails;
  (* bring the server up; after the cooldown, the half-open probe
     succeeds and recloses the breaker *)
  (match
     Service.Server.start
       { (Service.Server.default_config address) with Service.Server.jobs = 1 }
   with
  | Error e -> Alcotest.failf "server start: %s" (Dls.Errors.to_string e)
  | Ok server ->
    Thread.delay 0.2;
    (match R.request client P.Health with
    | Ok (P.Ok_health h) -> check "probe answered" true h.P.healthy
    | Ok other ->
      Alcotest.failf "expected health, got %s" (P.response_to_string other)
    | Error e -> Alcotest.failf "half-open probe: %s" (Dls.Errors.to_string e));
    check "breaker reclosed" true (R.breaker client = R.Breaker_closed);
    R.close client;
    Service.Server.stop server)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

module C = Service.Chaos

let test_chaos_plan_roundtrip () =
  let plan = C.gen ~seed:5 ~conns:64 ~severity:0.9 in
  check "gen is deterministic" true
    (plan = C.gen ~seed:5 ~conns:64 ~severity:0.9);
  check "severity 0.9 draws faults" true (List.length plan >= 10);
  List.iter
    (fun s ->
      check "every fourth connection is clean" true (s.C.conn mod 4 <> 3))
    plan;
  (match C.of_string (C.to_string plan) with
  | Ok plan' -> check "plan text round trip" true (plan = plan')
  | Error e -> Alcotest.failf "plan parse: %s" (Dls.Errors.to_string e));
  check_int "severity 0 is a clean plan" 0
    (List.length (C.gen ~seed:5 ~conns:64 ~severity:0.));
  match C.of_string "conn 0 req 0 explode" with
  | Error (Dls.Errors.Parse_error _) -> ()
  | Error e ->
    Alcotest.failf "expected parse error, got %s" (Dls.Errors.to_string e)
  | Ok _ -> Alcotest.fail "malformed plan accepted"

let chaos_fault_of_int = function
  | 0 -> C.Drop
  | 1 -> C.Delay 0.004
  | 2 -> C.Stall
  | 3 -> C.Truncate
  | 4 -> C.Garble_req
  | 5 -> C.Garble_resp
  | _ -> C.Disconnect

let regimes = [| Check.Fuzz.Small_z; Check.Fuzz.Unit_z; Check.Fuzz.Big_z |]

(* The certification matrix: >= 300 seeded cases crossing every fault
   kind with every z-regime of the paper (plus clean pass-through
   cases), each on a fresh proxy so fault indices never leak between
   cases.  The resilient client must deliver the bit-identical answer
   with a bounded number of retries, and the server-side accounting
   invariant must survive the whole barrage. *)
let test_chaos_matrix () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      { c with Service.Server.jobs = 2; queue_capacity = 64 })
    (fun server ->
      let upstream = Service.Server.address server in
      let cases = 336 in
      let total_retries = ref 0 in
      for case = 0 to cases - 1 do
        let rng = Random.State.make [| 0xc4a05; case |] in
        let p = Check.Fuzz.gen_platform rng regimes.(case mod 3) in
        let req = solve_req p in
        let plan =
          if case mod 8 = 7 then [] (* clean pass-through *)
          else
            [ { C.conn = 0; req = 0; fault = chaos_fault_of_int (case mod 7) } ]
        in
        let fault_label =
          match plan with
          | [] -> "clean"
          | s :: _ -> C.fault_to_string s.C.fault
        in
        match
          C.start
            ~listen:(Service.Server.Unix_socket (tmp_socket ()))
            ~upstream plan
        with
        | Error e ->
          Alcotest.failf "case %d: proxy: %s" case (Dls.Errors.to_string e)
        | Ok proxy ->
          let client =
            R.create
              {
                (R.default_config (C.address proxy)) with
                R.attempts = 4;
                attempt_timeout = Some 0.05;
                backoff_base = 0.001;
                backoff_max = 0.004;
                jitter_seed = case;
              }
          in
          let resp =
            match R.request client req with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "case %d (%s): %s" case fault_label
                (Dls.Errors.to_string e)
          in
          let st = R.stats client in
          total_retries := !total_retries + st.R.retries;
          check
            (Printf.sprintf "case %d (%s): bounded retries" case fault_label)
            true (st.R.retries <= 3);
          R.close client;
          C.stop proxy;
          let direct =
            Dls.Solve.solve_exn ~mode:`Exact
              (Dls.Scenario.fifo_exn p (Dls.Fifo.order p))
          in
          (match resp with
          | P.Ok_solve r ->
            check_str
              (Printf.sprintf "case %d (%s): rho bit-identical" case fault_label)
              (Q.to_string direct.Dls.Lp_model.rho)
              (Q.to_string r.P.rho);
            check_str
              (Printf.sprintf "case %d (%s): makespan bit-identical" case
                 fault_label)
              (Q.to_string
                 (Dls.Lp_model.time_for_load direct ~load:(q "1000")))
              (Q.to_string (Option.get r.P.makespan))
          | other ->
            Alcotest.failf "case %d (%s): expected ok solve, got %s" case
              fault_label (P.response_to_string other))
      done;
      (* at most one retry per faulted case, plus slack for timing *)
      check "retry budget across the matrix" true (!total_retries <= cases);
      let s = Service.Server.stats server in
      check "garbled requests were refused, not served" true
        (s.P.malformed >= 1);
      drain_invariant "chaos matrix" s)

let test_loadgen_chaos_goodput () =
  (* Replies delayed past the caller's deadline count as throughput but
     not goodput — the two must be reported separately. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2 })
    (fun server ->
      let upstream = Service.Server.address server in
      let plan =
        [
          { C.conn = 0; req = 0; fault = C.Delay 0.06 };
          { C.conn = 1; req = 0; fault = C.Delay 0.06 };
        ]
      in
      match
        C.start ~listen:(Service.Server.Unix_socket (tmp_socket ())) ~upstream
          plan
      with
      | Error e -> Alcotest.failf "proxy: %s" (Dls.Errors.to_string e)
      | Ok proxy ->
        let rcfg =
          {
            (R.default_config upstream) with
            R.attempts = 3;
            attempt_timeout = Some 0.5;
          }
        in
        let r =
          Service.Loadgen.run ~resilient:rcfg ~deadline_s:0.03
            (C.address proxy) ~connections:2 ~requests:8 ~seed:11 ~distinct:4
            ()
        in
        C.stop proxy;
        (match r with
        | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
        | Ok o ->
          check_int "every request answered" 8
            (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
            + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
            + o.Service.Loadgen.failed);
          check_int "no failures" 0 o.Service.Loadgen.failed;
          check "delayed replies are throughput, not goodput" true
            (o.Service.Loadgen.goodput < o.Service.Loadgen.ok)))

let test_loadgen_chaos_resilient_beats_naive () =
  (* Same drop plan, two arms: the naive client loses every dropped
     request (it reconnects but never retries); the resilient client
     recovers all of them.  The plan drops the first request of each of
     the four initial connections, so the outcome is deterministic. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2; queue_capacity = 64 })
    (fun server ->
      let upstream = Service.Server.address server in
      let plan =
        List.init 4 (fun c -> { C.conn = c; req = 0; fault = C.Drop })
      in
      let run_arm ?resilient () =
        match
          C.start
            ~listen:(Service.Server.Unix_socket (tmp_socket ()))
            ~upstream plan
        with
        | Error e -> Alcotest.failf "proxy: %s" (Dls.Errors.to_string e)
        | Ok proxy ->
          let r =
            Service.Loadgen.run ?resilient ~deadline_s:0.15 (C.address proxy)
              ~connections:4 ~requests:16 ~seed:2 ~distinct:4 ()
          in
          C.stop proxy;
          (match r with
          | Ok o -> o
          | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e))
      in
      let naive = run_arm () in
      let rcfg =
        {
          (R.default_config upstream) with
          R.attempts = 3;
          attempt_timeout = Some 0.05;
          backoff_base = 0.001;
          backoff_max = 0.004;
        }
      in
      let resil = run_arm ~resilient:rcfg () in
      (* Full accounting: every request ends in exactly one outcome, in
         both arms — a fault may fail a request, never lose it. *)
      List.iter
        (fun (label, o) ->
          check_int (label ^ ": every request accounted for") 16
            (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
            + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
            + o.Service.Loadgen.failed))
        [ ("naive", naive); ("resilient", resil) ];
      check_int "naive loses every dropped request" 4
        naive.Service.Loadgen.failed;
      check_int "naive throughput" 12 naive.Service.Loadgen.ok;
      check_int "resilient recovers them all" 16 resil.Service.Loadgen.ok;
      check_int "no resilient failures" 0 resil.Service.Loadgen.failed;
      check "retries did the recovering" true
        (resil.Service.Loadgen.retries >= 4);
      drain_invariant "chaos loadgen" (Service.Server.stats server))

(* ------------------------------------------------------------------ *)
(* Wire-format back compatibility                                      *)
(* ------------------------------------------------------------------ *)

let test_protocol_backcompat_lines () =
  (* Lines rendered by a pre-resilience daemon must parse with the new
     fields at their documented defaults. *)
  let old_stats =
    "ok stats accepted=10 served=7 rejected=1 timed_out=2 failed=1 \
     malformed=2 batches=3 max_batch=4 collapsed=1 cache_hits=5 \
     cache_misses=2 repair_probes=0 repair_wins=0 repair_pivots=0 \
     dispatchers=1 steals=0 queue_depth=0 inflight=0 p50_us=10 p90_us=20 \
     p99_us=30 max_us=40 uptime_s=1.5"
  in
  (match P.parse_response old_stats with
  | Ok (P.Ok_stats s) ->
    check_int "accepted preserved" 10 s.P.accepted;
    check_int "shed defaults to 0" 0 s.P.shed;
    check_int "brownouts defaults to 0" 0 s.P.brownouts;
    check_int "hangups defaults to 0" 0 s.P.hangups;
    check_int "warm_hits defaults to 0" 0 s.P.warm_hits;
    check_int "journal_appended defaults to 0" 0 s.P.journal_appended
  | Ok other ->
    Alcotest.failf "expected stats, got %s" (P.response_to_string other)
  | Error e -> Alcotest.failf "old stats line: %s" (Dls.Errors.to_string e));
  let old_health mode_less =
    Printf.sprintf
      "ok health healthy=%s draining=%s uptime_s=2.5 queue=0 capacity=64 \
       workers=4"
      (if mode_less = `Healthy then "true" else "false")
      (if mode_less = `Draining then "true" else "false")
  in
  (match P.parse_response (old_health `Healthy) with
  | Ok (P.Ok_health h) ->
    check "healthy preserved" true h.P.healthy;
    check "absent mode derived as healthy" true (h.P.h_mode = P.Mode_healthy)
  | _ -> Alcotest.fail "old healthy line did not parse");
  match P.parse_response (old_health `Draining) with
  | Ok (P.Ok_health h) ->
    check "absent mode derived as draining" true (h.P.h_mode = P.Mode_draining)
  | _ -> Alcotest.fail "old draining line did not parse"

(* ------------------------------------------------------------------ *)
(* Pinned wire bytes                                                   *)
(* ------------------------------------------------------------------ *)

(* fixtures/pinned_protocol.txt holds the wire as the hand-written codec
   rendered and parsed it, recorded before the codec became loops over
   per-verb field tables.  Each line is a tag and a payload:
   - [R]/[S]: a rendered request/response — the samples above, then a
     seeded draw covering every verb, every optional field present and
     absent, and a pre-resilience health line;
   - [E]: a rejected request line (%S-escaped) and the [error parse]
     rendering of its error — the error-position, huge-exponent and
     platform-spec-hardening inputs;
   - [P]: a platform spec (%S-escaped) rejected by the spec parser on
     its own, and its error;
   - [M]: a mutated line (%S-escaped) and what [parse_request] and
     [parse_response] make of it, re-rendered, so every parse error's
     line, column and message is pinned too.
   The fixture is never regenerated to make a change pass; its lines are
   printed by [test_service.exe --print-pinned FILE]. *)

let pinned_protocol_fixture =
  let here = "fixtures/pinned_protocol.txt" in
  if Sys.file_exists here then here else Filename.concat "test" here

let pick st a = a.(Random.State.int st (Array.length a))
let draw_q st = Q.of_ints (1 + Random.State.int st 1000) (1 + Random.State.int st 64)
let draw_q0 st = if Random.State.int st 4 = 0 then Q.zero else draw_q st
let draw_opt st f = if Random.State.bool st then Some (f st) else None
let draw_qs st n = Array.init n (fun _ -> draw_q0 st)

(* Every seventh platform has p = 11; z-uniform ones cycle through
   z < 1, z = 1 and z > 1. *)
let draw_platform st =
  let n = if Random.State.int st 7 = 0 then 11 else 1 + Random.State.int st 4 in
  if Random.State.bool st then
    Dls.Platform.with_return_ratio
      ~z:(pick st [| Q.of_ints 1 2; Q.one; Q.of_ints 3 2 |])
      (List.init n (fun _ -> (draw_q st, draw_q st)))
  else
    Dls.Platform.make_exn
      (List.init n (fun i ->
           Dls.Platform.worker ~name:(Printf.sprintf "P%d" (i + 1)) ~c:(draw_q st)
             ~w:(draw_q st) ~d:(draw_q0 st) ()))

let draw_faults st =
  Dls.Faults.make_exn
    (List.init (Random.State.int st 3) (fun _ ->
         let worker = Random.State.int st 4 in
         let factor = Q.add Q.one (draw_q0 st) in
         match Random.State.int st 4 with
         | 0 -> Dls.Faults.Slowdown { worker; factor; from_ = draw_q0 st }
         | 1 -> Dls.Faults.Degrade { worker; factor; from_ = draw_q0 st }
         | 2 -> Dls.Faults.Crash { worker; at = draw_q0 st }
         | _ -> Dls.Faults.Stall { worker; at = draw_q0 st; duration = draw_q st }))

let draw_policy st =
  pick st [| Dls.Replan.Resolve; Dls.Replan.Drop_faulty; Dls.Replan.Margin (draw_q0 st) |]

let draw_order st = pick st [| P.Fifo; P.Lifo |]

let draw_request st =
  match Random.State.int st 7 with
  | 0 ->
    P.Solve
      {
        s_platform = draw_platform st;
        s_order = draw_order st;
        s_model = pick st [| Dls.Lp_model.One_port; Dls.Lp_model.Two_port |];
        s_fast = Random.State.bool st;
        s_load = draw_opt st draw_q;
      }
  | 1 ->
    let u_mode = pick st [| P.Steady; P.Batch |] in
    P.Solve_multi
      {
        u_platform = draw_platform st;
        u_workload =
          Check.Fuzz.gen_workload st (pick st (Array.of_list Check.Fuzz.all_regimes));
        u_mode;
        u_depth =
          (if u_mode = P.Batch then draw_opt st (fun st -> Random.State.int st 4) else None);
      }
  | 2 ->
    P.Simulate
      {
        m_platform = draw_platform st;
        m_order = draw_order st;
        m_items = 1 + Random.State.int st 5000;
        m_faults = draw_opt st draw_faults;
        m_replan =
          (match Random.State.int st 3 with
          | 0 -> P.Replan_none
          | 1 -> P.Replan_auto
          | _ -> P.Replan_policy (draw_policy st));
      }
  | 3 -> P.Check (draw_platform st)
  | 4 -> P.Stats
  | 5 -> P.Health
  | _ -> P.Hello

let draw_float st =
  match Random.State.int st 4 with
  | 0 -> float (Random.State.int st 100_000)
  | 1 -> Random.State.float st 1.0
  | 2 -> Random.State.float st 1e7
  | _ -> ldexp (Random.State.float st 1.0) (Random.State.int st 100 - 50)

let draw_words st =
  String.concat " "
    (List.init
       (1 + Random.State.int st 4)
       (fun _ -> pick st [| "load"; "must"; "be"; "positive"; "x=1"; "\"P3\""; "worker"; "3/4" |]))

(* An [ok solve] drawn from the exact optimum of a drawn platform (every
   third one p = 11), or from plain random rationals. *)
let draw_solve_rep st =
  if Random.State.bool st then
    let n = if Random.State.int st 3 = 0 then 11 else 2 + Random.State.int st 3 in
    let p =
      Dls.Platform.with_return_ratio
        ~z:(pick st [| Q.of_ints 1 2; Q.one; Q.of_ints 3 2 |])
        (List.init n (fun _ -> (draw_q st, draw_q st)))
    in
    let sol = Dls.Fifo.optimal p in
    {
      P.rho = sol.Dls.Lp_model.rho;
      sigma1 = Dls.Fifo.order p;
      alpha = sol.Dls.Lp_model.alpha;
      idle = sol.Dls.Lp_model.idle;
      makespan =
        draw_opt st (fun st -> Dls.Lp_model.time_for_load sol ~load:(draw_q st));
    }
  else
    let n = 1 + Random.State.int st 5 in
    {
      P.rho = draw_q st;
      sigma1 = Array.init n (fun _ -> Random.State.int st n);
      alpha = draw_qs st n;
      idle = draw_qs st n;
      makespan = draw_opt st draw_q;
    }

(* [dispatchers] and [steals] were stats rows, between [repair_pivots]
   and [shed], when the fixture was recorded.  A drawn stats reply still
   takes their two values there, so the seeded stream stays aligned, and
   the mutated lines start from the stats line as it was rendered then:
   they pin how today's codec reads an older daemon's line, whose two
   retired keys it ignores. *)
let as_recorded ~retired:(dispatchers, steals) r =
  let line = P.response_to_string r in
  match r with
  | P.Ok_stats _ ->
    let i = find_sub line " shed=" in
    String.sub line 0 i
    ^ Printf.sprintf " dispatchers=%d steals=%d" dispatchers steals
    ^ String.sub line i (String.length line - i)
  | _ -> line

let draw_reply st ~retired =
  let int () = Random.State.int st 100_000 in
  match Random.State.int st 12 with
  | 0 -> P.Ok_solve (draw_solve_rep st)
  | 1 ->
    let mm_mode = pick st [| P.Steady; P.Batch |] in
    let loads = 1 + Random.State.int st 3 and n = 1 + Random.State.int st 4 in
    P.Ok_multi
      {
        mm_mode;
        mm_value = draw_q st;
        mm_throughput = draw_q st;
        mm_depth = draw_opt st (fun st -> Random.State.int st 4);
        mm_alloc = Array.init loads (fun _ -> draw_qs st n);
      }
  | 2 ->
    P.Ok_simulate
      {
        sim_makespan = draw_float st;
        lp_makespan = draw_float st;
        sim_valid = Random.State.bool st;
        achieved = draw_opt st draw_float;
        achieved_ratio = draw_opt st draw_float;
        replanned =
          draw_opt st (fun st -> Dls.Replan.policy_to_string (draw_policy st));
      }
  | 3 -> P.Ok_check { check_ok = Random.State.bool st; violations = int () }
  | 4 ->
    let count name =
      if name = "shed" then begin
        let dispatchers = int () in
        let steals = int () in
        retired := (dispatchers, steals)
      end;
      int ()
    in
    P.Ok_stats (P.stats_of ~count ~seconds:(fun _ -> draw_float st))
  | 5 ->
    P.Ok_health
      {
        healthy = Random.State.bool st;
        draining = Random.State.bool st;
        h_mode = pick st [| P.Mode_healthy; P.Mode_degraded; P.Mode_draining |];
        h_uptime_s = draw_float st;
        h_queue_depth = int ();
        h_capacity = int ();
        h_workers = int ();
      }
  | 6 ->
    P.Ok_hello
      {
        server_version = int ();
        server_min_version = int ();
        server_verbs = List.filter (fun _ -> Random.State.bool st) P.verbs;
      }
  | 7 -> P.Overloaded { depth = int (); capacity = int () }
  | 8 -> P.Timed_out { budget = draw_float st }
  | 9 -> P.Shed { wait = draw_float st; budget = draw_float st }
  | 10 ->
    P.Unsupported
      { verb = pick st [| "frobnicate"; "solve2"; "trace" |]; server_version = int () }
  | _ ->
    P.Failed
      (match Random.State.int st 5 with
      | 0 -> Dls.Errors.Unbounded
      | 1 -> Dls.Errors.Infeasible
      | 2 -> Dls.Errors.Invalid_scenario (draw_words st)
      | 3 -> Dls.Errors.Io_error (draw_words st)
      | _ ->
        Dls.Errors.Parse_error
          { file = None; line = 1 + int (); col = 1 + int (); msg = draw_words st })

(* A drawn reply and its line as recorded ([as_recorded]). *)
let draw_response st =
  let retired = ref (0, 0) in
  let r = draw_reply st ~retired in
  (r, as_recorded ~retired:!retired r)

let pre_resilience_health =
  "ok health healthy=false draining=false uptime_s=2.5 queue=0 capacity=64 workers=4"

let outcome_to_string render = function
  | Ok r -> render r
  | Error e -> P.response_to_string (P.Failed e)

let rejected_requests =
  [
    "frobnicate 1:1:1";
    "solve 1:1";
    "solve 1:1:1,2:x:1";
    "solve 1:1:1 order=sideways";
    "solve 1:1:1 load=-3";
    "solve 1:1:1 banana=7";
    "simulate 1:1:1 items=0";
    "simulate 1:1:1 faults=crash:0";
    "check 1:1:1 extra=1";
    "stats now";
    "";
    "solve 1:1e2000000:1,2:3:4";
    "solve 1:1:1 load=1e-99999999999999999999";
  ]
  @ List.map
      (fun spec -> "check " ^ spec)
      [ "1:2:1/2,"; ",1:2:1/2"; "1::1/2"; "1:2:"; "1:2" ]

(* The platform-spec parser, called on its own. *)
let platform_of_spec = Dls.Platform.of_spec

let rejected_specs =
  [ "1:2:1/2,"; ",1:2:1/2"; "1:2:1/2, ,2:3:1"; "1::1/2"; "1:2:"; "1:2"; " "; "1:2:3, 4:x:6" ]

let pinned_protocol_lines () =
  let st = Random.State.make [| 2026; 10; 26 |] in
  let requests =
    sample_requests () @ [ P.Hello ] @ List.init 300 (fun _ -> draw_request st)
  in
  let samples = sample_responses () in
  let drawn = List.init 300 (fun _ -> draw_response st) in
  let req_lines = List.map P.request_to_string requests in
  let pre_resilience =
    outcome_to_string P.response_to_string (P.parse_response pre_resilience_health)
  in
  let rep_lines =
    List.map P.response_to_string (samples @ List.map fst drawn) @ [ pre_resilience ]
  in
  let recorded_lines =
    List.map (as_recorded ~retired:(4, 6)) samples @ List.map snd drawn @ [ pre_resilience ]
  in
  let errors =
    List.map
      (fun s ->
        Printf.sprintf "E %S %s" s
          (outcome_to_string P.request_to_string (P.parse_request ~line:3 s)))
      rejected_requests
  in
  let specs =
    List.map
      (fun s ->
        Printf.sprintf "P %S %s" s
          (outcome_to_string (fun _ -> "accepted") (platform_of_spec ~line:4 ~col:9 s)))
      rejected_specs
  in
  let alphabet = "0123456789/-.,:;=#solvecheckstamulathfqropidxyz overloadtimeru\t" in
  let mutate line =
    let n = String.length line in
    match Random.State.int st 3 with
    | 0 -> String.sub line 0 (Random.State.int st (n + 1))
    | 1 ->
      let i = Random.State.int st (max n 1) in
      String.mapi (fun j ch -> if j = i then pick st (Array.init (String.length alphabet) (String.get alphabet)) else ch) line
    | _ ->
      let i = Random.State.int st (n + 1) in
      String.sub line 0 i ^ " " ^ String.sub line i (n - i)
  in
  (* The fixture was recorded when a reply line, like a request line,
     dropped a '#' and what follows it.  A reply keeps its '#' now
     ("reply keeps '#'" pins that), so the reply column of a mutated
     line is the codec's outcome on the text before its first '#': the
     same text as before for every line, and the whole line for all
     but three. *)
  let before_hash s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s in
  let mutations =
    List.concat_map
      (fun line ->
        List.init 4 (fun _ ->
            let s = mutate line in
            Printf.sprintf "M %S %s | %s" s
              (outcome_to_string P.request_to_string (P.parse_request ~line:2 s))
              (outcome_to_string P.response_to_string (P.parse_response (before_hash s)))))
      (List.filteri (fun i _ -> i mod 3 = 0) (req_lines @ recorded_lines))
  in
  List.map (( ^ ) "R ") req_lines @ List.map (( ^ ) "S ") rep_lines @ errors @ specs @ mutations

let test_pinned_protocol () =
  let want =
    In_channel.with_open_text pinned_protocol_fixture In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let got = pinned_protocol_lines () in
  Alcotest.(check int) "line count" (List.length want) (List.length got);
  List.iter2 (fun w g -> check_str "pinned wire bytes" w g) want got;
  (* the rendered lines also parse back to themselves *)
  List.iter
    (fun l ->
      let tag = String.sub l 0 2 and line = String.sub l 2 (String.length l - 2) in
      if tag = "R " then
        check_str "request re-renders" line
          (outcome_to_string P.request_to_string (P.parse_request ~line:1 line))
      else if tag = "S " then
        check_str "response re-renders" line
          (outcome_to_string P.response_to_string (P.parse_response line)))
    want

(* ------------------------------------------------------------------ *)
(* Round trips drawn from the field tables                             *)
(* ------------------------------------------------------------------ *)

(* One generator per value kind; a request or reply is drawn by folding
   its rows over the seed record, so a new row is drawn as soon as it
   exists.  Values are drawn in canonical form (workers [P1..Pn], loads
   [L1..Ln], non-empty fault plans and list rows), because the wire
   normalizes the others. *)

module G = QCheck2.Gen

let gen_q = G.map2 Q.of_ints (G.int_range 1 1000) (G.int_range 1 64)
let gen_q0 = G.oneof [ G.pure Q.zero; gen_q ]

(* p = 1..4 or 11, uniform return ratio z < 1, z = 1 or z > 1, or
   arbitrary return costs *)
let gen_platform =
  let open G in
  let* n = oneof [ int_range 1 4; pure 11 ] in
  let* z = oneofl [ Some (Q.of_ints 1 2); Some Q.one; Some (Q.of_ints 3 2); None ] in
  let+ costs = list_repeat n (triple gen_q gen_q gen_q0) in
  Dls.Platform.make_exn
    (List.mapi
       (fun i (c, w, d) ->
         let d = match z with Some z -> Q.mul z c | None -> d in
         Dls.Platform.worker ~name:(Printf.sprintf "P%d" (i + 1)) ~c ~w ~d ())
       costs)

let gen_word =
  G.string_size ~gen:(G.oneofl (List.init 26 (fun i -> Char.chr (97 + i)) @ [ ':'; '/'; '-'; '=' ]))
    (G.int_range 1 12)

let rec gen_kind : type a. a P.kind -> a G.t =
 fun kind ->
  let open G in
  match kind with
  | P.Rational P.Any -> oneof [ gen_q0; map Q.neg gen_q ]
  | P.Rational P.Positive -> gen_q
  | P.Rational P.Non_negative -> gen_q0
  | P.Int P.Any -> int_range (-1000) 1_000_000
  | P.Int P.Positive -> int_range 1 1_000_000
  | P.Int P.Non_negative -> int_range 0 10
  | P.Bool -> bool
  | P.Float ->
    oneof
      [
        map float_of_int (int_range 0 100_000);
        float_range 0. 1e7;
        map2 ldexp (float_range 0. 1.) (int_range (-50) 50);
      ]
  | P.Word -> gen_word
  | P.Order -> oneofl [ P.Fifo; P.Lifo ]
  | P.Model -> oneofl [ Dls.Lp_model.One_port; Dls.Lp_model.Two_port ]
  | P.Mode -> oneofl [ P.Steady; P.Batch ]
  | P.Health -> oneofl [ P.Mode_healthy; P.Mode_degraded; P.Mode_draining ]
  | P.Recovery ->
    oneof
      [
        oneofl [ P.Replan_none; P.Replan_auto ];
        map (fun p -> P.Replan_policy p)
          (oneof
             [
               oneofl [ Dls.Replan.Resolve; Dls.Replan.Drop_faulty ];
               map (fun m -> Dls.Replan.Margin m) gen_q0;
             ]);
      ]
  | P.Fault_plan ->
    let fault =
      let* worker = int_range 0 10 and* factor = map (Q.add Q.one) gen_q0 and* at = gen_q0 in
      oneof
        [
          pure (Dls.Faults.Slowdown { worker; factor; from_ = at });
          pure (Dls.Faults.Degrade { worker; factor; from_ = at });
          pure (Dls.Faults.Crash { worker; at });
          map (fun duration -> Dls.Faults.Stall { worker; at; duration }) gen_q;
        ]
    in
    map Dls.Faults.make_exn (list_size (int_range 1 3) fault)
  | P.Platform_spec -> gen_platform
  | P.Workload_spec ->
    let load i =
      let+ size = gen_q and+ release = gen_q0 and+ z = option gen_q0 in
      Dls.Workload.load ~name:(Printf.sprintf "L%d" (i + 1)) ~size ~release ?z ()
    in
    let* n = int_range 1 3 in
    map Dls.Workload.make_exn (flatten_l (List.init n load))
  | P.Q_list -> array_size (int_range 0 11) (gen_kind (P.Rational P.Any))
  | P.Int_list -> array_size (int_range 0 11) (int_range 0 10)
  | P.Alloc -> array_size (int_range 1 3) (array_size (int_range 1 11) gen_q0)
  | P.Verbs -> list_size (int_range 0 8) gen_word
  | P.Opt k -> option (gen_kind k)

let gen_rows rows seed =
  List.fold_left
    (fun acc (P.Field f) -> G.bind acc (fun r -> G.map (f.set r) (gen_kind f.kind)))
    (G.pure seed) rows

let round_trip ~name ~print ~parse gen =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
    (QCheck2.Test.make ~count:200 ~name:("qcheck " ^ name) ~print gen (fun r ->
         let line = print r in
         match parse line with
         | Error e -> QCheck2.Test.fail_reportf "%S: %s" line (Dls.Errors.to_string e)
         | Ok r' -> r' = r && print r' = line))

let request_round_trip (P.Verb v) =
  let rec valid gen =
    G.bind gen (fun r ->
        let given = List.map (fun (P.Field f) -> f.name) v.rows in
        if v.check ~given r = None then G.pure (v.inj r) else valid gen)
  in
  round_trip ~name:("request " ^ v.name) ~print:P.request_to_string
    ~parse:(P.parse_request ~line:1)
    (valid (gen_rows (Option.to_list v.spec @ v.rows) v.seed))

let reply_round_trip (P.Reply k) =
  round_trip ~name:("reply " ^ k.head) ~print:P.response_to_string ~parse:P.parse_response
    (G.map k.inj (gen_rows k.rows k.seed))

(* [ok solve] as the daemon fills it: the exact LP(2) optimum of a drawn
   platform, p = 11 among them, at z < 1, z = 1 and z > 1. *)
let lp_answer_round_trip =
  let gen =
    let open G in
    let+ p = gen_platform and+ load = option gen_q in
    let sol = Dls.Fifo.optimal p in
    P.Ok_solve
      {
        rho = sol.Dls.Lp_model.rho;
        sigma1 = Dls.Fifo.order p;
        alpha = sol.Dls.Lp_model.alpha;
        idle = sol.Dls.Lp_model.idle;
        makespan = Option.map (fun load -> Dls.Lp_model.time_for_load sol ~load) load;
      }
  in
  round_trip ~name:"ok solve from exact LP answers" ~print:P.response_to_string
    ~parse:P.parse_response gen

(* [error ...] is not a row table: its message is free text, single
   blanks between words. *)
let failed_round_trip =
  let gen =
    let open G in
    let* msg = map (String.concat " ") (list_size (int_range 1 5) gen_word) in
    oneof
      [
        oneofl [ Dls.Errors.Unbounded; Dls.Errors.Infeasible ];
        oneofl [ Dls.Errors.Invalid_scenario msg; Dls.Errors.Io_error msg ];
        map2
          (fun line col -> Dls.Errors.Parse_error { file = None; line; col; msg })
          (int_range 1 1000) (int_range 1 1000);
      ]
  in
  round_trip ~name:"reply error" ~print:P.response_to_string ~parse:P.parse_response
    (G.map (fun e -> P.Failed e) gen)

let protocol_qcheck_tests =
  List.map request_round_trip P.request_verbs
  @ List.map reply_round_trip P.replies
  @ [ failed_round_trip; lp_answer_round_trip ]

(* ------------------------------------------------------------------ *)
(* Endpoint: the socket front end of the daemon, router and proxy      *)
(* ------------------------------------------------------------------ *)

let start_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s start: %s" what (Dls.Errors.to_string e)

let one_job address =
  { (Service.Server.default_config address) with Service.Server.jobs = 1 }

(* The exact solve's reply to [solve_req p], rendered: every front end
   must send these bytes. *)
let exact_reply p =
  let sc = Dls.Scenario.fifo_exn p (Dls.Fifo.order p) in
  let sol = Dls.Solve.solve_exn ~mode:`Exact sc in
  P.response_to_string
    (P.Ok_solve
       {
         rho = sol.Dls.Lp_model.rho;
         sigma1 = sc.Dls.Scenario.sigma1;
         alpha = sol.Dls.Lp_model.alpha;
         idle = sol.Dls.Lp_model.idle;
         makespan = Some (Dls.Lp_model.time_for_load sol ~load:(q "1000"));
       })

let solve_via what address p =
  match
    Service.Client.with_client address (fun cl -> request_ok cl (solve_req p))
  with
  | Ok r -> P.response_to_string r
  | Error e -> Alcotest.failf "%s: %s" what (Dls.Errors.to_string e)

let tcp_any = Service.Server.Tcp ("127.0.0.1", 0)

(* A front end started on port 0 reports the port it got, answers one
   solve there bit-identically to the exact solver, and stops twice. *)
let check_tcp_front what address stop =
  (match address with
  | Service.Server.Tcp ("127.0.0.1", port) ->
    check (what ^ ": real port") true (port > 0)
  | other ->
    Alcotest.failf "%s bound %s" what (Service.Endpoint.to_string other));
  let p = p3 () in
  check_str (what ^ ": solve = exact") (exact_reply p) (solve_via what address p);
  stop ();
  stop ();
  check (what ^ ": port closed") true
    (Result.is_error (Service.Client.connect address))

let test_endpoint_tcp_daemon () =
  let server = start_exn "daemon" (Service.Server.start (one_job tcp_any)) in
  check_tcp_front "daemon" (Service.Server.address server) (fun () ->
      Service.Server.stop server)

let test_endpoint_tcp_router () =
  let server = start_exn "daemon" (Service.Server.start (one_job tcp_any)) in
  let router =
    start_exn "router"
      (Service.Router.start
         (Service.Router.default_config tcp_any
            ~shard_addresses:[ Service.Server.address server ]))
  in
  check_tcp_front "router" (Service.Router.address router) (fun () ->
      Service.Router.stop router);
  Service.Server.stop server

let test_endpoint_tcp_chaos () =
  let server = start_exn "daemon" (Service.Server.start (one_job tcp_any)) in
  let proxy =
    start_exn "chaos proxy"
      (Service.Chaos.start ~listen:tcp_any
         ~upstream:(Service.Server.address server) [])
  in
  check_tcp_front "chaos proxy" (Service.Chaos.address proxy) (fun () ->
      Service.Chaos.stop proxy);
  Service.Server.stop server

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A bind that fails (here: a socket path in a missing directory) must
   close the socket it made. *)
let test_endpoint_failed_start_no_leak () =
  let dir = Filename.temp_file "dls-endpoint" ".missing" in
  Sys.remove dir;
  let address = Service.Server.Unix_socket (Filename.concat dir "x.sock") in
  let refused what = function
    | Ok _ -> Alcotest.failf "%s started in a missing directory" what
    | Error _ -> ()
  in
  let before = open_fds () in
  for _ = 1 to 20 do
    refused "daemon" (Service.Server.start (one_job address));
    refused "router"
      (Service.Router.start
         (Service.Router.default_config address ~shard_addresses:[ address ]));
    refused "chaos proxy" (Service.Chaos.start ~listen:address ~upstream:address [])
  done;
  check_int "open descriptors after 60 failed starts" before (open_fds ())

(* A socket path that accepts connections belongs to a live server: a
   second daemon, router or proxy must not take it over. *)
let test_endpoint_live_path_refused () =
  with_server
    (fun c -> { c with Service.Server.jobs = 1 })
    (fun server ->
      let address = Service.Server.address server in
      let refused what = function
        | Ok _ -> Alcotest.failf "%s took over a live socket path" what
        | Error (Dls.Errors.Io_error _) -> ()
        | Error e ->
          Alcotest.failf "%s: expected io error, got %s" what
            (Dls.Errors.to_string e)
      in
      refused "daemon" (Service.Server.start (one_job address));
      refused "router"
        (Service.Router.start
           (Service.Router.default_config address ~shard_addresses:[ address ]));
      refused "chaos proxy"
        (Service.Chaos.start ~listen:address ~upstream:address []);
      let p = p2 () in
      check_str "the first daemon still answers" (exact_reply p)
        (solve_via "first daemon" address p))

(* A socket file nobody listens on, as a killed daemon leaves behind, is
   reclaimed. *)
let test_endpoint_stale_path_reclaimed () =
  let path = tmp_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  check "stale socket file present" true (Sys.file_exists path);
  let address = Service.Server.Unix_socket path in
  let server = start_exn "daemon" (Service.Server.start (one_job address)) in
  let p = p2 () in
  check_str "answers on the reclaimed path" (exact_reply p)
    (solve_via "daemon" address p);
  Service.Server.stop server;
  check "socket unlinked" false (Sys.file_exists path)

(* [stop] shuts the listening socket down, so it does not wait out the
   listener's accept poll: 20 start/stop cycles took about 1 s when each
   stop waited for the 50 ms poll. *)
let test_endpoint_quick_stop () =
  let t0 = Parallel.Clock.now () in
  for _ = 1 to 20 do
    Service.Server.stop (start_exn "daemon" (Service.Server.start (one_job tcp_any)))
  done;
  let elapsed = Parallel.Clock.elapsed_s ~since:t0 in
  Printf.printf "20 start/stop cycles in %.3fs\n" elapsed;
  if elapsed >= 0.5 then
    Alcotest.failf "20 start/stop cycles took %.3fs, not under 0.5s" elapsed

let () =
  if Array.length Sys.argv > 2 && Sys.argv.(1) = "--print-pinned" then
    Out_channel.with_open_text Sys.argv.(2) (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) (pinned_protocol_lines ()))
  else
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round trip" `Quick test_response_roundtrip;
          Alcotest.test_case "reply keeps '#'" `Quick test_reply_keeps_hash;
          Alcotest.test_case "error positions" `Quick test_request_error_positions;
          Alcotest.test_case "list field error column" `Quick
            test_list_field_error_column;
          Alcotest.test_case "huge decimal exponent" `Quick test_huge_exponent_rejected;
          Alcotest.test_case "garbage never raises" `Quick
            test_parser_garbage_never_raises;
          Alcotest.test_case "non-finite floats" `Quick test_float_nonfinite;
          Alcotest.test_case "platform spec hardening" `Quick
            test_platform_spec_hardening;
          Alcotest.test_case "pre-resilience lines still parse" `Quick
            test_protocol_backcompat_lines;
          Alcotest.test_case "pinned wire bytes and errors" `Quick
            test_pinned_protocol;
        ]
        @ protocol_qcheck_tests );
      ( "wire",
        [
          Alcotest.test_case "byte-at-a-time framing" `Quick
            test_wire_byte_at_a_time;
          Alcotest.test_case "read deadline keeps partial lines" `Quick
            test_wire_read_deadline;
        ] );
      ( "journal",
        [
          Alcotest.test_case "append/replay round trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated, journal reusable" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "replay stops at a bad checksum" `Quick
            test_journal_crc_corruption;
          Alcotest.test_case "crc32 known-answer vector" `Quick
            test_journal_crc32_vector;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quantile edges" `Quick test_metrics_quantiles;
          Alcotest.test_case "quantiles within 12.5%" `Quick
            test_metrics_quantile_error;
        ] );
      ( "queue",
        [
          Alcotest.test_case "basics" `Quick test_queue_basics;
          Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "exactly-once across consumers" `Quick
            test_queue_exactly_once;
          Alcotest.test_case "close wakes blocked pop" `Quick
            test_queue_close_wakes_blocked_pop;
          Alcotest.test_case "concurrent" `Quick test_queue_concurrent;
        ] );
      ("admission", [ core_ops_property ]);
      ( "server",
        [
          Alcotest.test_case "solve bit-identical" `Quick
            test_server_solve_bit_identical;
          Alcotest.test_case "single-flight collapse" `Quick
            test_server_single_flight_collapse;
          Alcotest.test_case "overload backpressure" `Quick test_server_overload;
          Alcotest.test_case "per-request timeout" `Quick test_server_timeout;
          Alcotest.test_case "drain under load" `Quick
            (test_server_drain_under_load ~jobs:2);
          Alcotest.test_case "drain under load, jobs=1" `Quick
            (test_server_drain_under_load ~jobs:1);
          Alcotest.test_case "malformed + inline stats" `Quick
            test_server_malformed_and_inline;
          Alcotest.test_case "multi-dispatcher drain" `Quick
            test_server_multi_dispatcher;
          Alcotest.test_case "evaluators overlap" `Quick
            test_server_evaluators_overlap;
          Alcotest.test_case "a slow request does not stall a fast one" `Quick
            test_server_slow_does_not_stall_fast;
          Alcotest.test_case "duplicates join the evaluation in flight" `Quick
            (test_server_duplicates_join ~jobs:2);
          Alcotest.test_case "duplicates join, jobs=1" `Quick
            (test_server_duplicates_join ~jobs:1);
          Alcotest.test_case "hangup mid-line" `Quick test_server_kill_mid_line;
          Alcotest.test_case "deadline-aware shed" `Quick test_server_shed;
          Alcotest.test_case "brownout downgrade" `Quick test_server_brownout;
          Alcotest.test_case "journal warm restart" `Quick
            test_server_journal_warm_restart;
          Alcotest.test_case "faulted simulate achieved is exact" `Quick
            test_server_faulted_simulate_exact;
        ] );
      ( "resilient",
        [
          Alcotest.test_case "breaker open/half-open/close" `Quick
            test_resilient_breaker_lifecycle;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan round trip + generator" `Quick
            test_chaos_plan_roundtrip;
          Alcotest.test_case "fault matrix certification" `Slow
            test_chaos_matrix;
          Alcotest.test_case "goodput vs throughput under delay" `Quick
            test_loadgen_chaos_goodput;
          Alcotest.test_case "resilient beats naive under drops" `Quick
            test_loadgen_chaos_resilient_beats_naive;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_loadgen_deterministic;
          Alcotest.test_case "streams pinned" `Quick test_loadgen_streams_pinned;
          Alcotest.test_case "against a server" `Quick test_loadgen_against_server;
          Alcotest.test_case "skewed key popularity" `Quick test_loadgen_skew;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "daemon on tcp port 0" `Quick
            test_endpoint_tcp_daemon;
          Alcotest.test_case "router on tcp port 0" `Quick
            test_endpoint_tcp_router;
          Alcotest.test_case "chaos proxy on tcp port 0" `Quick
            test_endpoint_tcp_chaos;
          Alcotest.test_case "failed starts leak no descriptor" `Quick
            test_endpoint_failed_start_no_leak;
          Alcotest.test_case "live socket path refused" `Quick
            test_endpoint_live_path_refused;
          Alcotest.test_case "stale socket path reclaimed" `Quick
            test_endpoint_stale_path_reclaimed;
          Alcotest.test_case "20 start/stop cycles under 0.5 s" `Quick
            test_endpoint_quick_stop;
        ] );
    ]
