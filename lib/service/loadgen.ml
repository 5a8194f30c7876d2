module Q = Numeric.Rational
module P = Protocol

type outcome = {
  sent : int;
  ok : int;
  overloaded : int;
  timeouts : int;
  shed : int;
  failed : int;
  goodput : int;
  retries : int;
  breaker_opens : int;
  p50_ms : float;
  p99_ms : float;
  wall_s : float;
  rps : float;
  offered_rps : float;
  max_lag_ms : float;
}

let regimes = [| Check.Fuzz.Small_z; Check.Fuzz.Unit_z; Check.Fuzz.Big_z |]

(* The scenario index must be a pure function of (seed, i); Hashtbl.hash
   is deterministic on immutable ints across runs and domains. *)
let uniform_index ~seed ~distinct i = Hashtbl.hash (seed, i) mod distinct

(* Zipf-like popularity: scenario rank r (0-based) carries weight
   (r+1)^-skew and the request's uniform draw — Hashtbl.hash is 30 bits,
   so dividing by 2^30 yields u in [0,1) — goes through the inverse CDF.
   Still a pure function of (seed, i), so the stream stays invariant
   under jobs and connection count exactly like the uniform mode. *)
let skewed_index ~skew ~seed ~distinct i =
  let u = float_of_int (Hashtbl.hash (seed, i, 0x5e1ec7)) /. 1073741824. in
  let weights =
    Array.init distinct (fun r -> float_of_int (r + 1) ** -.skew)
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let target = u *. total in
  let rec go r acc =
    if r >= distinct - 1 then distinct - 1
    else
      let acc = acc +. weights.(r) in
      if target < acc then r else go (r + 1) acc
  in
  go 0 0.

let scenario_index ?(skew = 0.) ~seed ~distinct i =
  if skew <= 0. then uniform_index ~seed ~distinct i
  else skewed_index ~skew ~seed ~distinct i

let platform_of_scenario ~seed s =
  let rng = Random.State.make [| seed; s; 0x10ad9e4 |] in
  Check.Fuzz.gen_platform rng regimes.(s mod 3)

let request ?(multi = false) ?(skew = 0.) ~seed ~distinct i =
  if distinct <= 0 then invalid_arg "Loadgen.request: distinct must be >= 1";
  let s = scenario_index ~skew ~seed ~distinct i in
  let platform = platform_of_scenario ~seed s in
  match s mod 10 with
  | 7 when multi ->
    (* Only scenario slot 7 changes when [multi] is on; the rest of the
       stream is bit-identical to the classic one. *)
    let rng = Random.State.make [| seed; s; 0x3417171 |] in
    let workload = Check.Fuzz.gen_workload rng regimes.(s mod 3) in
    P.Solve_multi
      {
        u_platform = platform;
        u_workload = workload;
        u_mode = (if s mod 2 = 0 then P.Steady else P.Batch);
        u_depth = None;
      }
  | 8 -> P.Check platform
  | 9 ->
    P.Simulate
      {
        m_platform = platform;
        m_order = P.Fifo;
        m_items = 100;
        m_faults = None;
        m_replan = P.Replan_auto;
      }
  | k ->
    P.Solve
      {
        s_platform = platform;
        s_order = (if k mod 2 = 0 then P.Fifo else P.Lifo);
        s_model = Dls.Lp_model.One_port;
        s_fast = true;
        s_load = (if k < 4 then Some (Q.of_int 1000) else None);
      }

(* Poisson arrival schedule: inter-arrival gaps are exponential with
   mean 1/rps, each gap derived from a hash-based uniform — a pure
   function of (seed, i), like the request stream itself.  The prefix
   sums are therefore identical for every connection count: the
   invariance is by construction, not by coordination.  Hashtbl.hash
   gives 30 bits; +1 keeps the uniform in (0, 1] so log never sees 0. *)
let arrivals ~seed ~rps n =
  if rps <= 0. then invalid_arg "Loadgen.arrivals: rps must be > 0";
  let t = ref 0. in
  Array.init n (fun i ->
      let u =
        float_of_int ((Hashtbl.hash (seed, i, 0xa881a1) land 0x3FFFFFFF) + 1)
        /. 1073741824.
      in
      t := !t +. (-.log u /. rps);
      !t)

type tally = {
  mutable t_ok : int;
  mutable t_overloaded : int;
  mutable t_timeouts : int;
  mutable t_shed : int;
  mutable t_failed : int;
  mutable t_goodput : int;
  mutable t_retries : int;
  mutable t_breaker_opens : int;
  mutable t_latencies_ms : float list;  (* of ok responses *)
  mutable t_lag_s : float;  (* worst lag behind the arrival schedule *)
}

(* One request issued and classified.  [send] runs it to completion
   (including any retries) and returns the response or a terminal
   error. *)
let issue tally ~deadline_s ~send req =
  let t0 = Parallel.Clock.now () in
  let result = send req in
  let elapsed = Parallel.Clock.elapsed_s ~since:t0 in
  match result with
  | Ok resp when P.is_ok resp ->
    tally.t_ok <- tally.t_ok + 1;
    tally.t_latencies_ms <- (elapsed *. 1e3) :: tally.t_latencies_ms;
    let in_time =
      match deadline_s with None -> true | Some d -> elapsed <= d
    in
    if in_time then tally.t_goodput <- tally.t_goodput + 1
  | Ok (P.Overloaded _) -> tally.t_overloaded <- tally.t_overloaded + 1
  | Ok (P.Timed_out _) -> tally.t_timeouts <- tally.t_timeouts + 1
  | Ok (P.Shed _) -> tally.t_shed <- tally.t_shed + 1
  | Ok _ | Error _ -> tally.t_failed <- tally.t_failed + 1

let quantile_ms sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx =
      let i = int_of_float (ceil (float_of_int n *. q)) - 1 in
      if i < 0 then 0 else if i >= n then n - 1 else i
    in
    sorted.(idx)

let run ?(multi = false) ?(skew = 0.) ?resilient ?deadline_s ?rps address
    ~connections ~requests ~seed ~distinct () =
  if
    connections <= 0 || requests < 0 || distinct <= 0
    || (match rps with Some r -> not (r > 0. && Float.is_finite r) | None -> false)
  then Dls.Errors.invalid "Loadgen.run: bad parameters"
  else begin
    (* Materialize the stream up front so worker threads only do I/O. *)
    let stream =
      Array.init requests (fun i -> request ~multi ~skew ~seed ~distinct i)
    in
    let schedule = Option.map (fun rps -> arrivals ~seed ~rps requests) rps in
    let connections = max 1 (min connections (max requests 1)) in
    let tallies =
      Array.init connections (fun _ ->
          {
            t_ok = 0;
            t_overloaded = 0;
            t_timeouts = 0;
            t_shed = 0;
            t_failed = 0;
            t_goodput = 0;
            t_retries = 0;
            t_breaker_opens = 0;
            t_latencies_ms = [];
            t_lag_s = 0.;
          })
    in
    let conn_error = Atomic.make None in
    let t0 = Parallel.Clock.now () in
    (* Connection [c] issues the requests with [i mod connections = c]
       in order.  In the open loop each waits for its scheduled arrival;
       a busy connection falls behind schedule instead of thinning the
       offered load, and that lag ([max_lag_ms]) and the achieved-vs-
       offered gap are what an open-loop run exposes. *)
    let drive c send =
      let tally = tallies.(c) in
      let i = ref c in
      while !i < requests do
        Option.iter
          (fun schedule ->
            let due = schedule.(!i) in
            let now = Parallel.Clock.elapsed_s ~since:t0 in
            if due > now then Unix.sleepf (due -. now)
            else tally.t_lag_s <- Float.max tally.t_lag_s (now -. due))
          schedule;
        issue tally ~deadline_s ~send stream.(!i);
        i := !i + connections
      done
    in
    let naive_worker c =
      match Client.connect address with
      | Error e ->
        if Atomic.get conn_error = None then Atomic.set conn_error (Some e)
      | Ok client ->
        let client = ref client in
        let send req =
          match Client.request ?deadline_s:deadline_s !client req with
          | Ok _ as ok -> ok
          | Error _ as err ->
            (* The cycle failed, so this connection's stream position
               is unknowable (a late reply would be matched to the
               wrong request).  Reconnect to stay well-framed; the
               failed request itself is NOT retried — that naivety is
               the point of this arm. *)
            Client.close !client;
            (match Client.connect address with
            | Ok fresh -> client := fresh
            | Error _ -> ());
            err
        in
        drive c send;
        Client.close !client
    in
    let resilient_worker rcfg c =
      let r = Resilient.create { rcfg with Resilient.address } in
      drive c (Resilient.request r);
      let s = Resilient.stats r in
      tallies.(c).t_retries <- s.Resilient.retries;
      tallies.(c).t_breaker_opens <- s.Resilient.breaker_opens;
      Resilient.close r
    in
    let worker =
      match resilient with
      | None -> naive_worker
      | Some rcfg -> resilient_worker rcfg
    in
    let threads = Array.init connections (fun c -> Thread.create worker c) in
    Array.iter Thread.join threads;
    let wall_s = Parallel.Clock.elapsed_s ~since:t0 in
    match Atomic.get conn_error with
    | Some e -> Error e
    | None ->
      let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
      let ok = sum (fun t -> t.t_ok) in
      let latencies =
        Array.of_list
          (Array.fold_left
             (fun acc t -> List.rev_append t.t_latencies_ms acc)
             [] tallies)
      in
      Array.sort compare latencies;
      let offered_rps =
        match schedule with
        | Some s when requests > 0 && s.(requests - 1) > 0. ->
          float_of_int requests /. s.(requests - 1)
        | _ -> 0.
      in
      Ok
        {
          sent = requests;
          ok;
          overloaded = sum (fun t -> t.t_overloaded);
          timeouts = sum (fun t -> t.t_timeouts);
          shed = sum (fun t -> t.t_shed);
          failed = sum (fun t -> t.t_failed);
          goodput = sum (fun t -> t.t_goodput);
          retries = sum (fun t -> t.t_retries);
          breaker_opens = sum (fun t -> t.t_breaker_opens);
          p50_ms = quantile_ms latencies 0.50;
          p99_ms = quantile_ms latencies 0.99;
          wall_s;
          rps = (if wall_s > 0. then float_of_int ok /. wall_s else 0.);
          offered_rps;
          max_lag_ms =
            1e3 *. Array.fold_left (fun m t -> Float.max m t.t_lag_s) 0. tallies;
        }
  end
