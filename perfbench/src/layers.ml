(* The traced run: per-layer metrics.

   It runs apart from the end-to-end run, in three steps:

   1. The workload is served once by the real daemon (with a router in
      front of it) to read the daemon's own counters
      from [stats] and to time the wire and the router hop with probe
      requests.
   2. The same requests are replayed in this process through each
      layer's public functions, in the order the daemon calls them,
      with a span around every call.  Solves go through the library's
      own [`Cached] mode, as in the daemon, so the solver and repair
      counts are the library's, taken as counter deltas.
   3. Single-layer probes time what the replay does not reach, or does
      not reach on its own: exact and fast solves, the simplex phases,
      a warm repair, bignum arithmetic, cache hits and evictions.

   Spans are recorded only here, in the benchmark; the program is not
   instrumented. *)

module Q = Numeric.Rational
module P = Service.Protocol
module L = Dls.Lp_model
module S = Spans

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* ------------------------------------------------------------------ *)
(* Step 1: the served pass                                             *)

type served = {
  p50_ms : float;
  stats : P.stats_rep;
  wire_rtt_us : float;
  router_hop_us : float;
  request_bytes : float;
  response_bytes : float;
  replies : string option array;
}

let request_line conn line =
  match Service.Client.request_line conn line with
  | Ok l -> l
  | Error e -> failwith (Service.Client.transport_error_to_string e)

let rtt_us conn line =
  let t0 = Parallel.Clock.now () in
  ignore (request_line conn line);
  (Parallel.Clock.now () -. t0) *. 1e6

let daemon_stats path =
  let c = Drive.connect path in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      match P.parse_response (request_line c "stats") with
      | Ok (P.Ok_stats s) -> s
      | _ -> failwith ("unexpected stats reply from " ^ path))

let mean_bytes lines =
  let total = Array.fold_left (fun n l -> n + String.length l + 1) 0 lines in
  float_of_int total /. float_of_int (max 1 (Array.length lines))

(* The last [k] distinct measured lines: the most recently used keys,
   so every one is still a tier-1 hit on the daemon. *)
let recent_distinct k lines =
  let d = Oracle.distinct (Array.of_list (List.rev (Array.to_list lines))) in
  Array.sub d 0 (min k (Array.length d))

let serve ~dls ~warm ~lines =
  let topo = Topo.start ~dls ~router:true in
  Fun.protect
    ~finally:(fun () -> Topo.stop topo)
    (fun () ->
      let conn = Drive.connect topo.Topo.daemon in
      ignore (Drive.run conn warm);
      let res = Drive.run conn lines in
      Service.Client.close conn;
      let stats = daemon_stats topo.Topo.daemon in
      let direct_conn = Drive.connect topo.Topo.daemon in
      let router = Drive.connect (Option.get topo.Topo.router) in
      (* [hello] is answered inline by the connection thread: the wire
         and framing cost with no queue or cache behind it. *)
      let wire = Array.init 2000 (fun _ -> rtt_us direct_conn "hello") in
      (* Router hop: the same tier-1 hits, through the router and
         straight to the daemon, interleaved. *)
      let probes = recent_distinct 200 lines in
      let via = ref [] and direct = ref [] in
      for _ = 1 to 5 do
        Array.iter
          (fun l ->
            via := rtt_us router l :: !via;
            direct := rtt_us direct_conn l :: !direct)
          probes
      done;
      Service.Client.close direct_conn;
      Service.Client.close router;
      let replies = Array.map (Option.value ~default:"") res.Drive.replies in
      {
        p50_ms = Quant.median res.Drive.latency_us /. 1e3;
        stats;
        wire_rtt_us = Quant.median wire;
        router_hop_us =
          Quant.median (Array.of_list !via) -. Quant.median (Array.of_list !direct);
        request_bytes = mean_bytes lines;
        response_bytes = mean_bytes replies;
        replies = res.Drive.replies;
      })

(* ------------------------------------------------------------------ *)
(* Step 2: the replay, through the daemon's layers in its own order    *)

(* Solver counters, summed as deltas around each single-threaded
   [`Cached] solve of the replay, so neither the exact solves of the
   other verbs nor the probes' solves count. *)
type tally = {
  mutable float_wins : int;
  mutable warm_wins : int;
  mutable exact_fallbacks : int;
  mutable float_pivots : int;
  mutable exact_pivots : int;
  mutable probes : int;  (** neighbour repairs attempted *)
  mutable wins : int;
  mutable repair_pivots : int;
}

let tally () =
  {
    float_wins = 0;
    warm_wins = 0;
    exact_fallbacks = 0;
    float_pivots = 0;
    exact_pivots = 0;
    probes = 0;
    wins = 0;
    repair_pivots = 0;
  }

(* Runs of the fast pipeline: each ends in one of these three. *)
let pipeline_runs t = t.float_wins + t.warm_wins + t.exact_fallbacks

(* A solve as the daemon runs it: [`Cached], through the library's own
   LP cache, neighbour probe and warm repair. *)
let solve_cached t (r : P.solve_req) =
  let b = L.pipeline_stats () and rb = L.resolve_stats () in
  let sol =
    S.span "solve.cached" (fun () ->
        Dls.Solve.solve_exn ~mode:`Cached ~model:r.P.s_model (Oracle.scenario r))
  in
  let a = L.pipeline_stats () and ra = L.resolve_stats () in
  t.float_wins <- t.float_wins + a.L.float_wins - b.L.float_wins;
  t.warm_wins <- t.warm_wins + a.L.warm_wins - b.L.warm_wins;
  t.exact_fallbacks <- t.exact_fallbacks + a.L.exact_fallbacks - b.L.exact_fallbacks;
  t.float_pivots <- t.float_pivots + a.L.float_pivots - b.L.float_pivots;
  t.exact_pivots <- t.exact_pivots + a.L.exact_pivots - b.L.exact_pivots;
  t.probes <- t.probes + ra.L.probes - rb.L.probes;
  t.wins <- t.wins + ra.L.repair_wins - rb.L.repair_wins;
  t.repair_pivots <- t.repair_pivots + ra.L.repair_pivots - rb.L.repair_pivots;
  Oracle.solve_reply r sol

type tiers = {
  lru : (string, P.response) Parallel.Lru.t;
  store : Service.Store.t;
  tally : tally;
}

let parse line =
  match P.parse_request ~line:1 line with
  | Ok r -> r
  | Error e -> failwith (Dls.Errors.to_string e)

(* The daemon's admission path for one request line: parse, key,
   tier-1 response cache, tier-2 store, evaluation (publishing the
   answer to both tiers), render; then the client's parse. *)
let replay_request t line =
  let r = S.span "protocol.parse_request" (fun () -> parse line) in
  let key = S.span "protocol.request_key" (fun () -> P.request_key r) in
  let resp =
    match S.span "lru.find" (fun () -> Parallel.Lru.find t.lru key) with
    | Some resp -> resp
    | None -> (
      match S.span "store.find" (fun () -> Service.Store.find t.store key) with
      | Some v ->
        let resp =
          match S.span "protocol.parse_response" (fun () -> P.parse_response v) with
          | Ok resp -> resp
          | Error e -> failwith (Dls.Errors.to_string e)
        in
        S.span "lru.add" (fun () -> Parallel.Lru.add t.lru key resp);
        resp
      | None ->
        let resp =
          match r with P.Solve s -> solve_cached t.tally s | r -> Oracle.eval r
        in
        let value = S.span "protocol.render_response" (fun () -> P.response_to_string resp) in
        ignore (S.span "store.add" (fun () -> Service.Store.add t.store ~key ~value));
        S.span "lru.add" (fun () -> Parallel.Lru.add t.lru key resp);
        resp)
  in
  let out = S.span "protocol.render_response" (fun () -> P.response_to_string resp) in
  ignore (S.span "protocol.parse_response" (fun () -> P.parse_response out));
  out

(* ------------------------------------------------------------------ *)
(* Step 3: single-layer probes                                         *)

(* Exact and fast solves, a cached hit, and the fast pipeline taken
   apart into its public phases: LP build, float simplex, exact basis
   certification, cold exact simplex, certificate check. *)
let probe_solve operands (r : P.solve_req) =
  let s = Oracle.scenario r in
  let exact = S.span "solve.exact" (fun () -> Dls.Solve.solve_exn ~mode:`Exact s) in
  ignore (S.span "solve.fast" (fun () -> Dls.Solve.solve_exn ~mode:`Fast s));
  (* Zero loads of unenrolled workers would swamp the sample. *)
  operands :=
    List.filter (fun q -> not (Q.is_zero q)) (exact.L.rho :: Array.to_list exact.L.alpha)
    @ !operands;
  ignore (Dls.Solve.solve_exn ~mode:`Cached s);
  ignore (S.span "solve.cached_hit" (fun () -> Dls.Solve.solve_exn ~mode:`Cached s));
  let p = S.span "lp.problem" (fun () -> L.problem r.P.s_model s) in
  (match S.span "simplex.float" (fun () -> Simplex.Float_solver.solve p) with
  | Simplex.Float_solver.Optimal f ->
    ignore
      (S.span "simplex.certify_basis" (fun () ->
           Simplex.Solver.certify_basis p ~basis:f.Simplex.Float_solver.basis))
  | Simplex.Float_solver.Unbounded | Simplex.Float_solver.Infeasible
  | Simplex.Float_solver.Stalled ->
    ());
  match S.span "simplex.exact" (fun () -> Simplex.Solver.solve p) with
  | Simplex.Solver.Optimal sol ->
    ignore (S.span "simplex.check" (fun () -> Simplex.Certify.check p sol))
  | Simplex.Solver.Unbounded | Simplex.Solver.Infeasible -> ()

(* Warm repair from a neighbour, timed on its own: each solve request
   against the nearest comparable one at most [Gen.window] requests
   earlier in [reqs], solved first through the cache.  The pairs only
   choose the probe's inputs; the replay's repair counts come from the
   library's own cache. *)
let probe_repair reqs =
  let solves =
    Array.of_list
      (List.filter_map (function P.Solve r -> Some r | _ -> None) (Array.to_list reqs))
  in
  let key (r : P.solve_req) = L.scenario_key r.P.s_model (Oracle.scenario r) in
  let keys = Array.map key solves in
  Array.iteri
    (fun i (r : P.solve_req) ->
      let near = ref None in
      for j = max 0 (i - Gen.window) to i - 1 do
        match L.scenario_key_distance keys.(i) keys.(j), !near with
        | (None | Some 0), _ -> ()
        | Some d, Some (bd, _) when bd < d -> ()
        | Some d, _ -> near := Some (d, j)
      done;
      Option.iter
        (fun (_, j) ->
          let n = solves.(j) in
          let sol = Dls.Solve.solve_exn ~mode:`Cached ~model:n.P.s_model (Oracle.scenario n) in
          ignore
            (S.span "repair.neighbor" (fun () ->
                 L.solve_from_neighbor r.P.s_model (Oracle.scenario r) sol)))
        !near)
    solves

(* Per-operation cost of a bignum operation over the workload's own
   exact answers: [reps] passes over consecutive operand pairs. *)
let ns_per_op operands f =
  let n = Array.length operands in
  let reps = max 1 (200_000 / max 1 n) in
  let t0 = S.now_ns () in
  for _ = 1 to reps do
    for i = 0 to n - 2 do
      ignore (Sys.opaque_identity (f operands.(i) operands.(i + 1)))
    done
  done;
  float_of_int (S.now_ns () - t0) /. float_of_int (reps * max 1 (n - 1))

let numeric_metrics operands =
  let ops = Array.of_list operands in
  let mag q = Numeric.Integer.magnitude (Q.num q) in
  let den q = Numeric.Integer.magnitude (Q.den q) in
  let bits =
    Array.concat
      [
        Array.map (fun q -> float_of_int (Numeric.Natural.num_bits (mag q))) ops;
        Array.map (fun q -> float_of_int (Numeric.Natural.num_bits (den q))) ops;
      ]
  in
  [
    metric "numeric.q_add_ns" "ns" (ns_per_op ops Q.add);
    metric "numeric.q_mul_ns" "ns" (ns_per_op ops Q.mul);
    metric "numeric.nat_gcd_ns" "ns"
      (ns_per_op ops (fun a b -> Numeric.Natural.gcd (mag a) (den b)));
    metric "numeric.operand_bits_p50" "bits" (Quant.median bits);
  ]

(* Tier probes on the workload's own keys: 4096-entry LRU hits and
   evicting inserts, store appends and verified reads. *)
let cache_probes keys values =
  let n = Array.length keys in
  let cap = 4096 in
  let lru = Parallel.Lru.create ~capacity:cap () in
  (* Keys past the workload's own are suffixed copies, so inserts keep
     evicting even on workloads with fewer than 4096 distinct keys. *)
  let key j = if j < n then keys.(j) else Printf.sprintf "%s#%d" keys.(j mod n) j in
  for j = 0 to cap - 1 do
    Parallel.Lru.add lru (key j) values.(j mod n)
  done;
  for j = 0 to cap - 1 do
    ignore (S.span "lru.find_hit" (fun () -> Parallel.Lru.find lru (key j)))
  done;
  for j = cap to (2 * cap) - 1 do
    S.span "lru.add_evict" (fun () -> Parallel.Lru.add lru (key j) values.(j mod n))
  done;
  let path = Filename.concat Gen.run_dir "probe-store.dat" in
  Proc.remove path;
  let store =
    match Service.Store.open_ path with
    | Ok s -> s
    | Error e -> failwith (Dls.Errors.to_string e)
  in
  Fun.protect
    ~finally:(fun () -> Service.Store.close store)
    (fun () ->
      Array.iteri
        (fun j k ->
          ignore
            (S.span "store.add_probe" (fun () ->
                 Service.Store.add store ~key:k ~value:values.(j))))
        keys;
      Array.iter
        (fun k -> ignore (S.span "store.find_hit" (fun () -> Service.Store.find store k)))
        keys)

(* ------------------------------------------------------------------ *)
(* Putting it together                                                 *)

(* Measured requests replayed through the layers. *)
let sample = 300

let by_name spans =
  let t = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add t s.S.name (S.duration_us s)) spans;
  t

let durations t name = Array.of_list (Hashtbl.find_all t name)

let median_of t name scale =
  match durations t name with
  | [||] -> 0.
  | d -> Quant.median d *. scale

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let run ~dls w ~seed ~seconds =
  Topo.prepare ();
  let n = Gen.length ~seconds in
  let warm_reqs, reqs = Gen.stream w ~seed ~n in
  let warm = Array.map Gen.line warm_reqs and lines = Array.map Gen.line reqs in
  let served = serve ~dls ~warm ~lines in
  let table = Oracle.table ~jobs:2 (Array.append warm lines) in
  let failed = ref 0 in
  Array.iteri
    (fun i l ->
      match served.replies.(i), Hashtbl.find table l with
      | Some got, Ok want when got = want -> ()
      | _ -> incr failed)
    lines;
  (* Replay, from the same cold caches as the daemon's.  The warm-up
     runs with spans recorded but outside any request, so only the
     measured requests count toward coverage and the solver tally. *)
  S.reset ();
  L.reset_cache ();
  let store_path = Filename.concat Gen.run_dir "replay-store.dat" in
  Proc.remove store_path;
  let store =
    match Service.Store.open_ store_path with
    | Ok s -> s
    | Error e -> failwith (Dls.Errors.to_string e)
  in
  let t = { lru = Parallel.Lru.create ~capacity:4096 (); store; tally = tally () } in
  Array.iter (fun l -> ignore (replay_request t l)) warm;
  let t = { t with tally = tally () } in
  let expected l =
    match Hashtbl.find table l with Ok v -> v | Error e -> failwith e
  in
  let replayed = Array.sub lines 0 (min sample (Array.length lines)) in
  let mismatches = ref 0 in
  Array.iteri
    (fun i l ->
      let got = S.request i (fun () -> replay_request t l) in
      if got <> expected l then incr mismatches)
    replayed;
  Service.Store.close store;
  (* Probes over the replayed sample's distinct requests. *)
  let operands = ref [] in
  let distinct = Oracle.distinct replayed in
  let sreqs = Array.map parse distinct in
  Array.iter (function P.Solve r -> probe_solve operands r | _ -> ()) sreqs;
  probe_repair sreqs;
  (* Verbs a workload does not send are still timed, on its first
     platforms with the cold-p11 parameters, so every layer reports. *)
  let platforms =
    Array.to_list sreqs
    |> List.filter_map (function
         | P.Solve r -> Some r.P.s_platform
         | P.Simulate r -> Some r.P.m_platform
         | P.Check p -> Some p
         | P.Solve_multi r -> Some r.P.u_platform
         | P.Stats | P.Health | P.Hello -> None)
    |> List.filteri (fun i _ -> i < 16)
  in
  let rng = Numeric.Prng.create ~seed in
  let present name = List.exists (fun (s : S.span) -> s.S.name = name) (S.all ()) in
  List.iter
    (fun (span, mk) ->
      if not (present span) then
        List.iter (fun p -> ignore (Oracle.eval (mk p))) platforms)
    [
      ( "sim.execute",
        fun p ->
          P.Simulate
            {
              m_platform = p;
              m_order = P.Fifo;
              m_items = 100;
              m_faults = None;
              m_replan = P.Replan_auto;
            } );
      ("check.validate", fun p -> P.Check p);
      ( "multi.solve",
        fun p ->
          P.Solve_multi
            {
              u_platform = p;
              u_workload = Gen.multi_workload rng;
              u_mode = P.Steady;
              u_depth = None;
            } );
    ];
  let values = Array.map expected distinct in
  cache_probes distinct values;
  let spans = S.all () in
  S.write (Filename.concat Gen.run_dir ("spans-" ^ Gen.name w ^ ".tsv")) spans;
  let selfs = S.self_times spans in
  let t_names = by_name spans in
  let us name = median_of t_names name 1. in
  let ms name = median_of t_names name 1e-3 in
  (* Coverage: per measured request, the self time of every layer span
     under it, plus the wire that the in-process replay cannot see,
     over the untraced p50. *)
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun ((s : S.span), self) ->
      if s.S.req >= 0 && s.S.parent >= 0 then
        Hashtbl.replace covered s.S.req
          (self +. Option.value ~default:0. (Hashtbl.find_opt covered s.S.req)))
    selfs;
  let covered = Array.of_seq (Hashtbl.to_seq_values covered) in
  let path_us =
    (if covered = [||] then 0. else Quant.median covered) +. served.wire_rtt_us
  in
  let st = served.stats in
  let fast_spans = durations t_names "solve.fast" in
  let c = t.tally in
  let runs = pipeline_runs c in
  let metrics =
    [
      metric "router.hop_us" "us" served.router_hop_us;
      metric "wire.rtt_us" "us" served.wire_rtt_us;
      metric "wire.request_bytes" "bytes" served.request_bytes;
      metric "wire.response_bytes" "bytes" served.response_bytes;
      metric "protocol.parse_request_us" "us" (us "protocol.parse_request");
      metric "protocol.request_key_us" "us" (us "protocol.request_key");
      metric "protocol.render_response_us" "us" (us "protocol.render_response");
      metric "protocol.parse_response_us" "us" (us "protocol.parse_response");
      metric "server.tier1_hit_ratio" "ratio" (ratio st.P.warm_hits st.P.accepted);
      metric "server.tier2_hit_ratio" "ratio" (ratio st.P.store_hits st.P.accepted);
      metric "server.lp_cache_hit_ratio" "ratio"
        (ratio st.P.cache_hits (st.P.cache_hits + st.P.cache_misses));
      metric "server.repair_win_ratio" "ratio" (ratio st.P.repair_wins st.P.repair_probes);
      metric "server.tier1_hits" "count" (float_of_int st.P.warm_hits);
      metric "server.tier2_hits" "count" (float_of_int st.P.store_hits);
      metric "server.lp_cache_hits" "count" (float_of_int st.P.cache_hits);
      metric "server.repair_wins" "count" (float_of_int st.P.repair_wins);
      metric "lru.find_hit_us" "us" (us "lru.find_hit");
      metric "lru.add_evict_us" "us" (us "lru.add_evict");
      metric "store.find_hit_us" "us" (us "store.find_hit");
      metric "store.add_us" "us" (us "store.add_probe");
      metric "solve.fast_ms" "ms" (ms "solve.fast");
      metric "solve.fast_p99_ms" "ms"
        (if fast_spans = [||] then 0. else Quant.quantile fast_spans 0.99 *. 1e-3);
      metric "solve.exact_ms" "ms" (ms "solve.exact");
      metric "solve.cached_hit_us" "us" (us "solve.cached_hit");
      metric "lp.problem_us" "us" (us "lp.problem");
      metric "lp.float_win_ratio" "ratio" (ratio c.float_wins runs);
      metric "lp.exact_fallback_ratio" "ratio" (ratio c.exact_fallbacks runs);
      metric "lp.float_pivots" "count" (ratio c.float_pivots runs);
      metric "lp.exact_pivots" "count" (ratio c.exact_pivots runs);
      metric "repair.neighbor_ms" "ms" (ms "repair.neighbor");
      metric "repair.win_ratio" "ratio" (ratio c.wins c.probes);
      metric "repair.pivots_per_win" "count" (ratio c.repair_pivots c.wins);
      metric "simplex.float_ms" "ms" (ms "simplex.float");
      metric "simplex.certify_basis_ms" "ms" (ms "simplex.certify_basis");
      metric "simplex.exact_ms" "ms" (ms "simplex.exact");
      metric "simplex.check_us" "us" (us "simplex.check");
      metric "sim.execute_ms" "ms" (ms "sim.execute");
      metric "check.validate_ms" "ms" (ms "check.validate");
      metric "multi.solve_ms" "ms" (ms "multi.solve");
      metric "trace.coverage_ratio" "ratio" (path_us /. (served.p50_ms *. 1e3));
    ]
    @ numeric_metrics !operands
  in
  (Array.length lines, !failed + !mismatches, metrics)
