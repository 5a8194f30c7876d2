module Q = Numeric.Rational
module T = Dls.Text_format
module E = Dls.Errors

type order = Fifo | Lifo

type solve_req = {
  s_platform : Dls.Platform.t;
  s_order : order;
  s_model : Dls.Lp_model.model;
  s_fast : bool;
  s_load : Q.t option;
}

type replan = Replan_none | Replan_auto | Replan_policy of Dls.Replan.policy

type simulate_req = {
  m_platform : Dls.Platform.t;
  m_order : order;
  m_items : int;
  m_faults : Dls.Faults.plan option;
  m_replan : replan;
}

type multi_mode = Steady | Batch

type multi_req = {
  u_platform : Dls.Platform.t;
  u_workload : Dls.Workload.t;
  u_mode : multi_mode;
  u_depth : int option;
}

type request =
  | Solve of solve_req
  | Solve_multi of multi_req
  | Simulate of simulate_req
  | Check of Dls.Platform.t
  | Stats
  | Health
  | Hello

let version = 2
let min_version = 1

let verbs =
  [ "solve"; "solve-multi"; "simulate"; "check"; "stats"; "health"; "hello" ]

type solve_rep = {
  rho : Q.t;
  sigma1 : int array;
  alpha : Q.t array;
  idle : Q.t array;
  makespan : Q.t option;
}

type simulate_rep = {
  sim_makespan : float;
  lp_makespan : float;
  sim_valid : bool;
  achieved : float option;
  achieved_ratio : float option;
  replanned : string option;
}

type multi_rep = {
  mm_mode : multi_mode;
  mm_value : Q.t;
  mm_throughput : Q.t;
  mm_depth : int option;
  mm_alloc : Q.t array array;
}

type check_rep = { check_ok : bool; violations : int }

type hello_rep = {
  server_version : int;
  server_min_version : int;
  server_verbs : string list;
}

type stats_rep = {
  accepted : int;
  served : int;
  rejected : int;
  timed_out : int;
  failed : int;
  malformed : int;
  batches : int;
  max_batch : int;
  collapsed : int;
  cache_hits : int;
  cache_misses : int;
  repair_probes : int;
  repair_wins : int;
  repair_pivots : int;
  dispatchers : int;
  steals : int;
  shed : int;
  brownouts : int;
  hangups : int;
  warm_hits : int;
  journal_appended : int;
  store_hits : int;
  store_misses : int;
  store_demoted : int;
  compactions : int;
  queue_depth : int;
  inflight : int;
  p50_us : int;
  p90_us : int;
  p99_us : int;
  max_us : int;
  uptime_s : float;
}

type health_mode = Mode_healthy | Mode_degraded | Mode_draining

type health_rep = {
  healthy : bool;
  draining : bool;
  h_mode : health_mode;
  h_uptime_s : float;
  h_queue_depth : int;
  h_capacity : int;
  h_workers : int;
}

type response =
  | Ok_solve of solve_rep
  | Ok_multi of multi_rep
  | Ok_simulate of simulate_rep
  | Ok_check of check_rep
  | Ok_stats of stats_rep
  | Ok_health of health_rep
  | Ok_hello of hello_rep
  | Overloaded of { depth : int; capacity : int }
  | Timed_out of { budget : float }
  | Shed of { wait : float; budget : float }
  | Unsupported of { verb : string; server_version : int }
  | Failed of E.t

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Scalar rendering                                                    *)

(* Shortest decimal form that parses back to the same float, so float
   fields survive a render/parse round trip bit-for-bit.  Non-finite
   values break the roundtrip test ([nan <> nan]; the integer shortcut
   misclassifies infinities), so they get explicit canonical spellings —
   which the parse side then rejects with a typed error, keeping
   non-finite values out of the protocol in both directions. *)
let float_str f =
  match Float.classify_float f with
  | Float.FP_nan -> "nan"
  | Float.FP_infinite -> if f > 0.0 then "inf" else "-inf"
  | _ ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let rec go p =
        if p > 17 then Printf.sprintf "%.17g" f
        else
          let s = Printf.sprintf "%.*g" p f in
          if float_of_string s = f then s else go (p + 1)
      in
      go 6

let bool_str b = if b then "true" else "false"

let mode_str = function
  | Mode_healthy -> "healthy"
  | Mode_degraded -> "degraded"
  | Mode_draining -> "draining"
let order_to_string = function Fifo -> "fifo" | Lifo -> "lifo"

let model_to_string = function
  | Dls.Lp_model.One_port -> "one-port"
  | Dls.Lp_model.Two_port -> "two-port"

let replan_to_string = function
  | Replan_none -> "none"
  | Replan_auto -> "auto"
  | Replan_policy p -> Dls.Replan.policy_to_string p

let q_list qs = String.concat "," (List.map Q.to_string (Array.to_list qs))
let int_list is = String.concat "," (List.map string_of_int (Array.to_list is))
let mode_to_string = function Steady -> "steady" | Batch -> "batch"

(* Load-major allocation matrix: rows comma-joined, rows joined by ';'. *)
let alloc_list rows =
  String.concat ";" (List.map q_list (Array.to_list rows))

(* ------------------------------------------------------------------ *)
(* Platform spec: c:w:d,c:w:d — the CLI's compact form, with positions *)

let platform_to_spec p =
  String.concat ","
    (List.init (Dls.Platform.size p) (fun i ->
         let wk = Dls.Platform.get p i in
         Printf.sprintf "%s:%s:%s"
           (Q.to_string wk.Dls.Platform.c)
           (Q.to_string wk.Dls.Platform.w)
           (Q.to_string wk.Dls.Platform.d)))

(* [col] is where [s] starts on the line; sub-token error columns are
   offsets into [s] added to it. *)
let platform_of_spec ?file ~line ~col s =
  let rational ~off txt =
    match Q.of_string txt with
    | q -> Ok q
    | exception _ ->
      E.parse_error ?file ~line ~col:(col + off) "not a rational: %S" txt
  in
  (* split keeping each part's offset in [s], surrounding blanks
     trimmed (offsets adjusted) so "1:2 , 3:4:5" parses; a part left
     empty by the trim is a stray separator, reported at its exact
     position instead of as a generic shape error *)
  let split_offsets sep str =
    let parts = String.split_on_char sep str in
    let _, with_off =
      List.fold_left
        (fun (off, acc) part ->
          (off + String.length part + 1, (off, part) :: acc))
        (0, []) parts
    in
    List.rev_map
      (fun (off, part) ->
        let n = String.length part in
        let i = ref 0 in
        while !i < n && (part.[!i] = ' ' || part.[!i] = '\t') do
          incr i
        done;
        let j = ref (n - 1) in
        while !j >= !i && (part.[!j] = ' ' || part.[!j] = '\t') do
          decr j
        done;
        (off + !i, String.sub part !i (!j - !i + 1)))
      with_off
  in
  let parse_worker i (off, part) =
    match split_offsets ':' part with
    | [ (oc, c); (ow, w); (od, d) ] when c <> "" && w <> "" && d <> "" ->
      let* c = rational ~off:(off + oc) c in
      let* w = rational ~off:(off + ow) w in
      let* d = rational ~off:(off + od) d in
      (match Dls.Platform.worker ~name:(Printf.sprintf "P%d" (i + 1)) ~c ~w ~d () with
      | wk -> Ok wk
      | exception Invalid_argument msg ->
        E.parse_error ?file ~line ~col:(col + off) "%s" msg)
    | fields ->
      if part = "" then
        E.parse_error ?file ~line ~col:(col + off)
          "empty worker spec (stray ',' separator?)"
      else (
        match List.find_opt (fun (_, f) -> f = "") fields with
        | Some (o, _) ->
          E.parse_error ?file ~line ~col:(col + off + o)
            "empty field in worker spec (stray ':' separator?)"
        | None ->
          E.parse_error ?file ~line ~col:(col + off) "expected c:w:d, got %S"
            part)
  in
  let rec collect i acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest ->
      let* wk = parse_worker i part in
      collect (i + 1) (wk :: acc) rest
  in
  if String.trim s = "" then
    E.parse_error ?file ~line ~col "empty platform spec"
  else
    let* workers = collect 0 [] (split_offsets ',' s) in
    match Dls.Platform.make workers with
    | Ok p -> Ok p
    | Error (E.Invalid_scenario msg) -> E.parse_error ?file ~line ~col "%s" msg
    | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)

let split_kv (tok : T.token) =
  match String.index_opt tok.T.text '=' with
  | Some i ->
    Some
      ( String.sub tok.T.text 0 i,
        String.sub tok.T.text (i + 1) (String.length tok.T.text - i - 1) )
  | None -> None

let parse_bool ?file ~line (tok : T.token) v =
  match v with
  | "true" | "1" -> Ok true
  | "false" | "0" -> Ok false
  | _ -> E.parse_error ?file ~line ~col:tok.T.col "expected true/false, got %S" v

let parse_int ?file ~line (tok : T.token) v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> E.parse_error ?file ~line ~col:tok.T.col "not an integer: %S" v

let parse_rational ?file ~line (tok : T.token) v =
  match Q.of_string v with
  | q -> Ok q
  | exception _ ->
    E.parse_error ?file ~line ~col:tok.T.col "not a rational: %S" v

(* [faults=slowdown:2:3/2:1/4;crash:0:5/8] — unpack into the Faults
   text format ([;] = newline, [:] = space) and reuse its parser.  The
   re-parse reports positions in the unpacked text; surface them at the
   option token instead, keeping the original message. *)
let parse_faults ?file ~line (tok : T.token) v =
  let text =
    String.map (function ';' -> '\n' | ':' -> ' ' | ch -> ch) v
  in
  match Dls.Faults.of_string text with
  | Ok plan -> Ok plan
  | Error (E.Parse_error { msg; _ }) ->
    E.parse_error ?file ~line ~col:tok.T.col "bad fault plan: %s" msg
  | Error e -> Error e

let parse_replan ?file ~line (tok : T.token) v =
  match v with
  | "none" -> Ok Replan_none
  | "auto" -> Ok Replan_auto
  | _ -> (
    match Dls.Replan.policy_of_string v with
    | Some p -> Ok (Replan_policy p)
    | None ->
      E.parse_error ?file ~line ~col:tok.T.col "unknown recovery policy %S" v)

let parse_order ?file ~line (tok : T.token) v =
  match v with
  | "fifo" -> Ok Fifo
  | "lifo" -> Ok Lifo
  | _ -> E.parse_error ?file ~line ~col:tok.T.col "expected fifo/lifo, got %S" v

let parse_model ?file ~line (tok : T.token) v =
  match v with
  | "one-port" | "1p" -> Ok Dls.Lp_model.One_port
  | "two-port" | "2p" -> Ok Dls.Lp_model.Two_port
  | _ ->
    E.parse_error ?file ~line ~col:tok.T.col "expected one-port/two-port, got %S" v

let parse_mode ?file ~line (tok : T.token) v =
  match v with
  | "steady" -> Ok Steady
  | "batch" -> Ok Batch
  | _ ->
    E.parse_error ?file ~line ~col:tok.T.col "expected steady/batch, got %S" v

let parse_request_v ?file ~line s =
  let malformed = function Ok r -> `Request r | Error e -> `Malformed e in
  match T.tokens s with
  | [] -> `Malformed (E.Parse_error { file; line; col = 1; msg = "empty request" })
  | verb :: rest -> (
    let spec_and_opts kind =
      match rest with
      | [] ->
        E.parse_error ?file ~line ~col:(verb.T.col + String.length verb.T.text)
          "%s needs a platform spec (c:w:d,...)" kind
      | spec :: opts ->
        let* p =
          platform_of_spec ?file ~line ~col:spec.T.col spec.T.text
        in
        Ok (p, opts)
    in
    let fold_opts opts ~init ~f =
      List.fold_left
        (fun acc tok ->
          let* acc = acc in
          match split_kv tok with
          | None ->
            E.parse_error ?file ~line ~col:tok.T.col
              "expected key=value, got %S" tok.T.text
          | Some (k, v) -> f acc tok k v)
        (Ok init) opts
    in
    let no_trailing kind =
      match rest with
      | [] -> Ok ()
      | tok :: _ ->
        E.parse_error ?file ~line ~col:tok.T.col "%s takes no arguments" kind
    in
    let known () =
      match verb.T.text with
    | "solve" ->
      let* p, opts = spec_and_opts "solve" in
      let init =
        {
          s_platform = p;
          s_order = Fifo;
          s_model = Dls.Lp_model.One_port;
          s_fast = true;
          s_load = None;
        }
      in
      let* r =
        fold_opts opts ~init ~f:(fun r tok k v ->
            match k with
            | "order" ->
              let* o = parse_order ?file ~line tok v in
              Ok { r with s_order = o }
            | "model" ->
              let* m = parse_model ?file ~line tok v in
              Ok { r with s_model = m }
            | "fast" ->
              let* b = parse_bool ?file ~line tok v in
              Ok { r with s_fast = b }
            | "load" ->
              let* q = parse_rational ?file ~line tok v in
              if Q.sign q <= 0 then
                E.parse_error ?file ~line ~col:tok.T.col "load must be positive"
              else Ok { r with s_load = Some q }
            | _ ->
              E.parse_error ?file ~line ~col:tok.T.col
                "unknown solve option %S" k)
      in
      Ok (Solve r)
    | "solve-multi" ->
      let* p, opts = spec_and_opts "solve-multi" in
      let init = (None, Steady, None) in
      let* workload, u_mode, u_depth =
        fold_opts opts ~init ~f:(fun (wl, mode, depth) tok k v ->
            match k with
            | "workload" ->
              (* positions inside the spec are relative to the value,
                 which starts after "workload=" within the token *)
              let col = tok.T.col + String.length k + 1 in
              let* w = Dls.Workload.of_spec ?file ~line ~col v in
              Ok (Some w, mode, depth)
            | "mode" ->
              let* m = parse_mode ?file ~line tok v in
              Ok (wl, m, depth)
            | "depth" ->
              let* d = parse_int ?file ~line tok v in
              if d < 0 then
                E.parse_error ?file ~line ~col:tok.T.col
                  "depth must be non-negative"
              else Ok (wl, mode, Some d)
            | _ ->
              E.parse_error ?file ~line ~col:tok.T.col
                "unknown solve-multi option %S" k)
      in
      (match workload with
      | None ->
        E.parse_error ?file ~line
          ~col:(verb.T.col + String.length verb.T.text)
          "solve-multi needs workload=size:release[:z],..."
      | Some u_workload ->
        if u_mode = Steady && u_depth <> None then
          E.parse_error ?file ~line ~col:verb.T.col
            "depth only applies to mode=batch"
        else Ok (Solve_multi { u_platform = p; u_workload; u_mode; u_depth }))
    | "simulate" ->
      let* p, opts = spec_and_opts "simulate" in
      let init =
        {
          m_platform = p;
          m_order = Fifo;
          m_items = 1000;
          m_faults = None;
          m_replan = Replan_auto;
        }
      in
      let* r =
        fold_opts opts ~init ~f:(fun r tok k v ->
            match k with
            | "order" ->
              let* o = parse_order ?file ~line tok v in
              Ok { r with m_order = o }
            | "items" ->
              let* n = parse_int ?file ~line tok v in
              if n <= 0 then
                E.parse_error ?file ~line ~col:tok.T.col "items must be positive"
              else Ok { r with m_items = n }
            | "faults" ->
              let* plan = parse_faults ?file ~line tok v in
              Ok { r with m_faults = Some plan }
            | "replan" ->
              let* rp = parse_replan ?file ~line tok v in
              Ok { r with m_replan = rp }
            | _ ->
              E.parse_error ?file ~line ~col:tok.T.col
                "unknown simulate option %S" k)
      in
      Ok (Simulate r)
    | "check" ->
      let* p, opts = spec_and_opts "check" in
      let* () =
        match opts with
        | [] -> Ok ()
        | tok :: _ ->
          E.parse_error ?file ~line ~col:tok.T.col "check takes no options"
      in
      Ok (Check p)
    | "stats" ->
      let* () = no_trailing "stats" in
      Ok Stats
    | "health" ->
      let* () = no_trailing "health" in
      Ok Health
    | "hello" ->
      let* () = no_trailing "hello" in
      Ok Hello
    | _ -> assert false
    in
    match verb.T.text with
    | "solve" | "solve-multi" | "simulate" | "check" | "stats" | "health"
    | "hello" ->
      malformed (known ())
    | other -> `Unknown_verb other)

let parse_request ?file ~line s =
  match parse_request_v ?file ~line s with
  | `Request r -> Ok r
  | `Malformed e -> Error e
  | `Unknown_verb other ->
    let col = match T.tokens s with tok :: _ -> tok.T.col | [] -> 1 in
    E.parse_error ?file ~line ~col "unknown request %S (expected %s)" other
      (String.concat "/" verbs)

(* ------------------------------------------------------------------ *)
(* Request rendering                                                   *)

let faults_to_inline plan =
  String.concat ";"
    (List.map
       (fun f ->
         String.map
           (function ' ' -> ':' | ch -> ch)
           (Dls.Faults.fault_to_string f))
       (Dls.Faults.faults plan))

let request_to_string = function
  | Solve r ->
    let b = Buffer.create 64 in
    Buffer.add_string b "solve ";
    Buffer.add_string b (platform_to_spec r.s_platform);
    Buffer.add_string b (" order=" ^ order_to_string r.s_order);
    Buffer.add_string b (" model=" ^ model_to_string r.s_model);
    Buffer.add_string b (" fast=" ^ bool_str r.s_fast);
    (match r.s_load with
    | Some q -> Buffer.add_string b (" load=" ^ Q.to_string q)
    | None -> ());
    Buffer.contents b
  | Solve_multi r ->
    let b = Buffer.create 64 in
    Buffer.add_string b "solve-multi ";
    Buffer.add_string b (platform_to_spec r.u_platform);
    Buffer.add_string b (" workload=" ^ Dls.Workload.to_spec r.u_workload);
    Buffer.add_string b (" mode=" ^ mode_to_string r.u_mode);
    (match r.u_depth with
    | Some d -> Buffer.add_string b (Printf.sprintf " depth=%d" d)
    | None -> ());
    Buffer.contents b
  | Simulate r ->
    let b = Buffer.create 64 in
    Buffer.add_string b "simulate ";
    Buffer.add_string b (platform_to_spec r.m_platform);
    Buffer.add_string b (" order=" ^ order_to_string r.m_order);
    Buffer.add_string b (Printf.sprintf " items=%d" r.m_items);
    (match r.m_faults with
    | Some plan when not (Dls.Faults.is_empty plan) ->
      Buffer.add_string b (" faults=" ^ faults_to_inline plan)
    | _ -> ());
    Buffer.add_string b (" replan=" ^ replan_to_string r.m_replan);
    Buffer.contents b
  | Check p -> "check " ^ platform_to_spec p
  | Stats -> "stats"
  | Health -> "health"
  | Hello -> "hello"

let request_key = request_to_string

(* ------------------------------------------------------------------ *)
(* Stats fields                                                        *)

(* The one description of the stats record: a row per field, in wire
   order, with its name, value kind, merge rule across shards and
   default when absent from the wire.  The [ok stats] line, its JSON,
   [merge_stats], the parser and [stats_of] (hence [Metrics.snapshot])
   are loops over it. *)

type _ kind = Count : int kind | Seconds : float kind
type merge = Sum | Max
type 'a absent = Required | Default of 'a

type stats_field =
  | Field : {
      name : string;
      kind : 'a kind;
      merge : merge;
      absent : 'a absent;
      get : stats_rep -> 'a;
      set : stats_rep -> 'a -> stats_rep;
    }
      -> stats_field

(* Merge: counters add up across shards; the round/latency maxima stay
   maxima (a merged quantile of power-of-two bucket bounds is not
   reconstructible, so the conservative upper envelope is reported);
   [dispatchers] adds up because it counts serving threads behind the
   merged endpoint; [uptime_s] is the oldest shard's — the merged
   endpoint has been serving at least that long.

   Absent: the [Default] fields arrived with later servers (repair,
   sharding, resilience, scale-out), which were the first to do what
   they count, so an older line without them means 0 — and one
   dispatcher, the only layout before sharding. *)
let stats_fields =
  let count name merge absent get set =
    Field { name; kind = Count; merge; absent; get; set }
  in
  [
    count "accepted" Sum Required
      (fun r -> r.accepted) (fun r v -> { r with accepted = v });
    count "served" Sum Required
      (fun r -> r.served) (fun r v -> { r with served = v });
    count "rejected" Sum Required
      (fun r -> r.rejected) (fun r v -> { r with rejected = v });
    count "timed_out" Sum Required
      (fun r -> r.timed_out) (fun r v -> { r with timed_out = v });
    count "failed" Sum Required
      (fun r -> r.failed) (fun r v -> { r with failed = v });
    count "malformed" Sum Required
      (fun r -> r.malformed) (fun r v -> { r with malformed = v });
    count "batches" Sum Required
      (fun r -> r.batches) (fun r v -> { r with batches = v });
    count "max_batch" Max Required
      (fun r -> r.max_batch) (fun r v -> { r with max_batch = v });
    count "collapsed" Sum Required
      (fun r -> r.collapsed) (fun r v -> { r with collapsed = v });
    count "cache_hits" Sum Required
      (fun r -> r.cache_hits) (fun r v -> { r with cache_hits = v });
    count "cache_misses" Sum Required
      (fun r -> r.cache_misses) (fun r v -> { r with cache_misses = v });
    count "repair_probes" Sum (Default 0)
      (fun r -> r.repair_probes) (fun r v -> { r with repair_probes = v });
    count "repair_wins" Sum (Default 0)
      (fun r -> r.repair_wins) (fun r v -> { r with repair_wins = v });
    count "repair_pivots" Sum (Default 0)
      (fun r -> r.repair_pivots) (fun r v -> { r with repair_pivots = v });
    count "dispatchers" Sum (Default 1)
      (fun r -> r.dispatchers) (fun r v -> { r with dispatchers = v });
    count "steals" Sum (Default 0)
      (fun r -> r.steals) (fun r v -> { r with steals = v });
    count "shed" Sum (Default 0)
      (fun r -> r.shed) (fun r v -> { r with shed = v });
    count "brownouts" Sum (Default 0)
      (fun r -> r.brownouts) (fun r v -> { r with brownouts = v });
    count "hangups" Sum (Default 0)
      (fun r -> r.hangups) (fun r v -> { r with hangups = v });
    count "warm_hits" Sum (Default 0)
      (fun r -> r.warm_hits) (fun r v -> { r with warm_hits = v });
    count "journal_appended" Sum (Default 0)
      (fun r -> r.journal_appended) (fun r v -> { r with journal_appended = v });
    count "store_hits" Sum (Default 0)
      (fun r -> r.store_hits) (fun r v -> { r with store_hits = v });
    count "store_misses" Sum (Default 0)
      (fun r -> r.store_misses) (fun r v -> { r with store_misses = v });
    count "store_demoted" Sum (Default 0)
      (fun r -> r.store_demoted) (fun r v -> { r with store_demoted = v });
    count "compactions" Sum (Default 0)
      (fun r -> r.compactions) (fun r v -> { r with compactions = v });
    count "queue_depth" Sum Required
      (fun r -> r.queue_depth) (fun r v -> { r with queue_depth = v });
    count "inflight" Sum Required
      (fun r -> r.inflight) (fun r v -> { r with inflight = v });
    count "p50_us" Max Required
      (fun r -> r.p50_us) (fun r v -> { r with p50_us = v });
    count "p90_us" Max Required
      (fun r -> r.p90_us) (fun r v -> { r with p90_us = v });
    count "p99_us" Max Required
      (fun r -> r.p99_us) (fun r v -> { r with p99_us = v });
    count "max_us" Max Required
      (fun r -> r.max_us) (fun r v -> { r with max_us = v });
    Field
      {
        name = "uptime_s";
        kind = Seconds;
        merge = Max;
        absent = Required;
        get = (fun r -> r.uptime_s);
        set = (fun r v -> { r with uptime_s = v });
      };
  ]

(* The seed every field-by-field build starts from. *)
let stats_zero =
  {
    accepted = 0;
    served = 0;
    rejected = 0;
    timed_out = 0;
    failed = 0;
    malformed = 0;
    batches = 0;
    max_batch = 0;
    collapsed = 0;
    cache_hits = 0;
    cache_misses = 0;
    repair_probes = 0;
    repair_wins = 0;
    repair_pivots = 0;
    dispatchers = 0;
    steals = 0;
    shed = 0;
    brownouts = 0;
    hangups = 0;
    warm_hits = 0;
    journal_appended = 0;
    store_hits = 0;
    store_misses = 0;
    store_demoted = 0;
    compactions = 0;
    queue_depth = 0;
    inflight = 0;
    p50_us = 0;
    p90_us = 0;
    p99_us = 0;
    max_us = 0;
    uptime_s = 0.;
  }

let stats_of ~(count : string -> int) ~(seconds : string -> float) =
  List.fold_left
    (fun r (Field f) ->
      match f.kind with
      | Count -> f.set r (count f.name)
      | Seconds -> f.set r (seconds f.name))
    stats_zero stats_fields

let stat_to_string : type a. a kind -> a -> string =
 fun kind v -> match kind with Count -> string_of_int v | Seconds -> float_str v

(* [(name, rendered value)] per field, in wire order. *)
let stats_pairs r =
  List.map
    (fun (Field f) -> (f.name, stat_to_string f.kind (f.get r)))
    stats_fields

let stats_to_json r =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) (stats_pairs r))
  ^ "}"

let merge_stat : type a. a kind -> merge -> a -> a -> a =
 fun kind merge a b ->
  match (kind, merge) with
  | Count, Sum -> a + b
  | Count, Max -> max a b
  | Seconds, Sum -> a +. b
  | Seconds, Max -> Float.max a b

let merge_stats (first : stats_rep) (rest : stats_rep list) =
  List.fold_left
    (fun a r ->
      List.fold_left
        (fun m (Field f) ->
          f.set m (merge_stat f.kind f.merge (f.get a) (f.get r)))
        a stats_fields)
    first rest

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let error_to_string (e : E.t) =
  match e with
  | E.Unbounded -> "error unbounded"
  | E.Infeasible -> "error infeasible"
  | E.Invalid_scenario msg -> "error invalid " ^ one_line msg
  | E.Io_error msg -> "error io " ^ one_line msg
  | E.Parse_error { line; col; msg; file = _ } ->
    Printf.sprintf "error parse line=%d col=%d %s" line col (one_line msg)

let response_to_string = function
  | Ok_solve r ->
    let b = Buffer.create 128 in
    Buffer.add_string b ("ok solve rho=" ^ Q.to_string r.rho);
    Buffer.add_string b (" sigma1=" ^ int_list r.sigma1);
    Buffer.add_string b (" alpha=" ^ q_list r.alpha);
    Buffer.add_string b (" idle=" ^ q_list r.idle);
    (match r.makespan with
    | Some q -> Buffer.add_string b (" makespan=" ^ Q.to_string q)
    | None -> ());
    Buffer.contents b
  | Ok_multi r ->
    let b = Buffer.create 96 in
    Buffer.add_string b ("ok multi mode=" ^ mode_to_string r.mm_mode);
    let value_key = match r.mm_mode with Steady -> "period" | Batch -> "makespan" in
    Buffer.add_string b
      (Printf.sprintf " %s=%s" value_key (Q.to_string r.mm_value));
    Buffer.add_string b (" throughput=" ^ Q.to_string r.mm_throughput);
    (match r.mm_depth with
    | Some d -> Buffer.add_string b (Printf.sprintf " depth=%d" d)
    | None -> ());
    Buffer.add_string b (" alloc=" ^ alloc_list r.mm_alloc);
    Buffer.contents b
  | Ok_simulate r ->
    let b = Buffer.create 96 in
    Buffer.add_string b ("ok simulate makespan=" ^ float_str r.sim_makespan);
    Buffer.add_string b (" lp=" ^ float_str r.lp_makespan);
    Buffer.add_string b (" valid=" ^ bool_str r.sim_valid);
    (match r.achieved with
    | Some f -> Buffer.add_string b (" achieved=" ^ float_str f)
    | None -> ());
    (match r.achieved_ratio with
    | Some f -> Buffer.add_string b (" ratio=" ^ float_str f)
    | None -> ());
    (match r.replanned with
    | Some p -> Buffer.add_string b (" replan=" ^ p)
    | None -> ());
    Buffer.contents b
  | Ok_check r ->
    Printf.sprintf "ok check valid=%s violations=%d" (bool_str r.check_ok)
      r.violations
  | Ok_stats r ->
    String.concat " "
      ("ok stats" :: List.map (fun (k, v) -> k ^ "=" ^ v) (stats_pairs r))
  | Ok_health r ->
    Printf.sprintf
      "ok health healthy=%s draining=%s mode=%s uptime_s=%s queue=%d \
       capacity=%d workers=%d"
      (bool_str r.healthy) (bool_str r.draining)
      (mode_str r.h_mode)
      (float_str r.h_uptime_s)
      r.h_queue_depth r.h_capacity r.h_workers
  | Ok_hello r ->
    Printf.sprintf "ok hello version=%d min=%d verbs=%s" r.server_version
      r.server_min_version
      (String.concat "," r.server_verbs)
  | Overloaded { depth; capacity } ->
    Printf.sprintf "overloaded depth=%d capacity=%d" depth capacity
  | Timed_out { budget } -> "timeout budget=" ^ float_str budget
  | Shed { wait; budget } ->
    Printf.sprintf "shed wait=%s budget=%s" (float_str wait) (float_str budget)
  | Unsupported { verb; server_version } ->
    Printf.sprintf "unsupported verb=%s version=%d" verb server_version
  | Failed e -> error_to_string e

let is_ok = function
  | Ok_solve _ | Ok_multi _ | Ok_simulate _ | Ok_check _ | Ok_stats _
  | Ok_health _ | Ok_hello _ ->
    true
  | Overloaded _ | Timed_out _ | Shed _ | Unsupported _ | Failed _ -> false

(* ------------------------------------------------------------------ *)
(* Response parsing                                                    *)

let kv_map toks =
  List.fold_left
    (fun acc tok ->
      let* acc = acc in
      match split_kv tok with
      | Some (k, v) -> Ok ((k, (tok, v)) :: acc)
      | None ->
        E.parse_error ~line:1 ~col:tok.T.col "expected key=value, got %S"
          tok.T.text)
    (Ok []) toks

let need kvs k =
  match List.assoc_opt k kvs with
  | Some (tok, v) -> Ok (tok, v)
  | None -> E.parse_error ~line:1 ~col:1 "response misses field %S" k

let opt_field kvs k = Option.map snd (List.assoc_opt k kvs)

let need_int kvs k =
  let* tok, v = need kvs k in
  parse_int ~line:1 tok v

(* [float_of_string_opt] happily accepts "nan"/"inf"; protocol floats
   are measurements (makespans, budgets, uptimes) for which a
   non-finite value can only be an upstream bug, so it is rejected with
   a typed error instead of being propagated. *)
let finite_float ~col v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> Ok f
  | Some _ -> E.parse_error ~line:1 ~col "non-finite float: %S" v
  | None -> E.parse_error ~line:1 ~col "not a float: %S" v

let need_float kvs k =
  let* tok, v = need kvs k in
  finite_float ~col:tok.T.col v

let need_bool kvs k =
  let* tok, v = need kvs k in
  parse_bool ~line:1 tok v

let need_q kvs k =
  let* tok, v = need kvs k in
  parse_rational ~line:1 tok v

let q_array ~col v =
  if v = "" then Ok [||]
  else
    let parts = String.split_on_char ',' v in
    let* qs =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          match Q.of_string p with
          | q -> Ok (q :: acc)
          | exception _ ->
            E.parse_error ~line:1 ~col "not a rational: %S" p)
        (Ok []) parts
    in
    Ok (Array.of_list (List.rev qs))

let int_array ~col v =
  if v = "" then Ok [||]
  else
    let parts = String.split_on_char ',' v in
    let* is =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          match int_of_string_opt p with
          | Some i -> Ok (i :: acc)
          | None -> E.parse_error ~line:1 ~col "not an integer: %S" p)
        (Ok []) parts
    in
    Ok (Array.of_list (List.rev is))

let opt_float kvs k =
  match List.assoc_opt k kvs with
  | None -> Ok None
  | Some (tok, v) ->
    let* f = finite_float ~col:tok.T.col v in
    Ok (Some f)

let parse_stat : type a. a kind -> T.token -> string -> (a, E.t) result =
 fun kind tok v ->
  match kind with
  | Count -> parse_int ~line:1 tok v
  | Seconds -> finite_float ~col:tok.T.col v

(* [error ...] / [ok simulate replan=...] carry a free-text tail; the
   tokens after a fixed prefix are rejoined from their recorded columns
   so interior spacing collapses to single blanks (the renderer never
   emits more anyway). *)
let rest_as_string toks = String.concat " " (List.map (fun t -> t.T.text) toks)

let parse_response s =
  match T.tokens s with
  | [] -> E.parse_error ~line:1 ~col:1 "empty response"
  | { T.text = "overloaded"; _ } :: rest ->
    let* kvs = kv_map rest in
    let* depth = need_int kvs "depth" in
    let* capacity = need_int kvs "capacity" in
    Ok (Overloaded { depth; capacity })
  | { T.text = "timeout"; _ } :: rest ->
    let* kvs = kv_map rest in
    let* budget = need_float kvs "budget" in
    Ok (Timed_out { budget })
  | { T.text = "shed"; _ } :: rest ->
    let* kvs = kv_map rest in
    let* wait = need_float kvs "wait" in
    let* budget = need_float kvs "budget" in
    Ok (Shed { wait; budget })
  | { T.text = "unsupported"; _ } :: rest ->
    let* kvs = kv_map rest in
    let* _, verb = need kvs "verb" in
    let* server_version = need_int kvs "version" in
    Ok (Unsupported { verb; server_version })
  | { T.text = "error"; _ } :: code :: rest -> (
    match code.T.text with
    | "unbounded" -> Ok (Failed E.Unbounded)
    | "infeasible" -> Ok (Failed E.Infeasible)
    | "invalid" -> Ok (Failed (E.Invalid_scenario (rest_as_string rest)))
    | "io" -> Ok (Failed (E.Io_error (rest_as_string rest)))
    | "parse" -> (
      match rest with
      | lt :: ct :: msg_toks -> (
        match (split_kv lt, split_kv ct) with
        | Some ("line", lv), Some ("col", cv) ->
          let* line = parse_int ~line:1 lt lv in
          let* col = parse_int ~line:1 ct cv in
          Ok
            (Failed
               (E.Parse_error
                  { file = None; line; col; msg = rest_as_string msg_toks }))
        | _ ->
          E.parse_error ~line:1 ~col:lt.T.col
            "error parse needs line= and col=")
      | _ ->
        E.parse_error ~line:1 ~col:code.T.col
          "error parse needs line= and col=")
    | other ->
      E.parse_error ~line:1 ~col:code.T.col "unknown error code %S" other)
  | { T.text = "error"; col; _ } :: [] ->
    E.parse_error ~line:1 ~col "error response misses its code"
  | { T.text = "ok"; _ } :: kind :: rest -> (
    match kind.T.text with
    | "solve" ->
      let* kvs = kv_map rest in
      let* rho = need_q kvs "rho" in
      let* _, s1 = need kvs "sigma1" in
      let* sigma1 = int_array ~col:1 s1 in
      let* _, av = need kvs "alpha" in
      let* alpha = q_array ~col:1 av in
      let* _, iv = need kvs "idle" in
      let* idle = q_array ~col:1 iv in
      let* makespan =
        match opt_field kvs "makespan" with
        | None -> Ok None
        | Some v -> (
          match Q.of_string v with
          | q -> Ok (Some q)
          | exception _ ->
            E.parse_error ~line:1 ~col:1 "not a rational: %S" v)
      in
      Ok (Ok_solve { rho; sigma1; alpha; idle; makespan })
    | "multi" ->
      let* kvs = kv_map rest in
      let* mode_tok, mode_v = need kvs "mode" in
      let* mm_mode = parse_mode ~line:1 mode_tok mode_v in
      let value_key = match mm_mode with Steady -> "period" | Batch -> "makespan" in
      let* mm_value = need_q kvs value_key in
      let* mm_throughput = need_q kvs "throughput" in
      let* mm_depth =
        match opt_field kvs "depth" with
        | None -> Ok None
        | Some v -> (
          match int_of_string_opt v with
          | Some d -> Ok (Some d)
          | None -> E.parse_error ~line:1 ~col:1 "not an integer: %S" v)
      in
      let* _, av = need kvs "alloc" in
      let* rows =
        if av = "" then Ok [||]
        else
          let* rows =
            List.fold_left
              (fun acc row ->
                let* acc = acc in
                let* qs = q_array ~col:1 row in
                Ok (qs :: acc))
              (Ok [])
              (String.split_on_char ';' av)
          in
          Ok (Array.of_list (List.rev rows))
      in
      Ok (Ok_multi { mm_mode; mm_value; mm_throughput; mm_depth; mm_alloc = rows })
    | "hello" ->
      let* kvs = kv_map rest in
      let* server_version = need_int kvs "version" in
      let* server_min_version = need_int kvs "min" in
      let* _, vv = need kvs "verbs" in
      let server_verbs =
        if vv = "" then [] else String.split_on_char ',' vv
      in
      Ok (Ok_hello { server_version; server_min_version; server_verbs })
    | "simulate" ->
      let* kvs = kv_map rest in
      let* sim_makespan = need_float kvs "makespan" in
      let* lp_makespan = need_float kvs "lp" in
      let* sim_valid = need_bool kvs "valid" in
      let* achieved = opt_float kvs "achieved" in
      let* achieved_ratio = opt_float kvs "ratio" in
      let replanned = opt_field kvs "replan" in
      Ok
        (Ok_simulate
           {
             sim_makespan;
             lp_makespan;
             sim_valid;
             achieved;
             achieved_ratio;
             replanned;
           })
    | "check" ->
      let* kvs = kv_map rest in
      let* check_ok = need_bool kvs "valid" in
      let* violations = need_int kvs "violations" in
      Ok (Ok_check { check_ok; violations })
    | "stats" ->
      let* kvs = kv_map rest in
      let field r (Field f) =
        let* r = r in
        let* v =
          match (List.assoc_opt f.name kvs, f.absent) with
          | None, Default d -> Ok d
          | _ ->
            let* tok, v = need kvs f.name in
            parse_stat f.kind tok v
        in
        Ok (f.set r v)
      in
      let* r = List.fold_left field (Ok stats_zero) stats_fields in
      Ok (Ok_stats r)
    | "health" ->
      let* kvs = kv_map rest in
      let* healthy = need_bool kvs "healthy" in
      let* draining = need_bool kvs "draining" in
      (* Pre-resilience servers spoke only the two booleans; derive the
         mode from them when the field is absent so new clients keep
         parsing old health lines. *)
      let* h_mode =
        match opt_field kvs "mode" with
        | None ->
          Ok
            (if draining then Mode_draining
             else if healthy then Mode_healthy
             else Mode_degraded)
        | Some "healthy" -> Ok Mode_healthy
        | Some "degraded" -> Ok Mode_degraded
        | Some "draining" -> Ok Mode_draining
        | Some other ->
          E.parse_error ~line:1 ~col:1 "unknown health mode %S" other
      in
      let* h_uptime_s = need_float kvs "uptime_s" in
      let* h_queue_depth = need_int kvs "queue" in
      let* h_capacity = need_int kvs "capacity" in
      let* h_workers = need_int kvs "workers" in
      Ok
        (Ok_health
           {
             healthy;
             draining;
             h_mode;
             h_uptime_s;
             h_queue_depth;
             h_capacity;
             h_workers;
           })
    | other ->
      E.parse_error ~line:1 ~col:kind.T.col "unknown response kind %S" other)
  | { T.text = "ok"; col; _ } :: [] ->
    E.parse_error ~line:1 ~col "ok response misses its kind"
  | tok :: _ ->
    E.parse_error ~line:1 ~col:tok.T.col
      "unknown response status %S (expected ok/overloaded/timeout/shed/error)"
      tok.T.text
