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
(* Value kinds                                                         *)

(* Every value a request option or a response field can carry; [show]
   and [read] below are the codec, one arm per kind.  Parse error
   positions and wording are pinned by test_service's "protocol
   pinned". *)

type bound = Any | Positive | Non_negative

type _ kind =
  | Rational : bound -> Q.t kind
  | Int : bound -> int kind
  | Bool : bool kind
  | Float : float kind
  | Word : string kind
  | Order : order kind
  | Model : Dls.Lp_model.model kind
  | Mode : multi_mode kind
  | Health : health_mode kind
  | Recovery : replan kind
  | Fault_plan : Dls.Faults.plan kind
  | Platform_spec : Dls.Platform.t kind
  | Workload_spec : Dls.Workload.t kind
  | Q_list : Q.t array kind
  | Int_list : int array kind
  | Alloc : Q.t array array kind
  | Verbs : string list kind
  | Opt : 'a kind -> 'a option kind

type 'r absent = Required | Seed | Derived of ('r -> 'r) | Only_if of ('r -> bool)

type 'r field =
  | Field : {
      name : string;
      kind : 'a kind;
      absent : 'r absent;
      get : 'r -> 'a;
      set : 'r -> 'a -> 'r;
    }
      -> 'r field

let field name kind absent get set = Field { name; kind; absent; get; set }

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

let join sep f xs = String.concat sep (List.map f (Array.to_list xs))

(* [faults=slowdown:2:3/2:1/4;crash:0:5/8] is the Faults text format
   with [;] for newline and [:] for the field separator. *)
let faults_to_inline plan =
  String.concat ";"
    (List.map
       (fun f -> String.map (function ' ' -> ':' | ch -> ch) (Dls.Faults.fault_to_string f))
       (Dls.Faults.faults plan))

(* The keyword kinds' spellings; the first one of a value is rendered. *)
let bools = [ ("true", true); ("false", false); ("1", true); ("0", false) ]
let orders = [ ("fifo", Fifo); ("lifo", Lifo) ]

let models =
  Dls.Lp_model.[ ("one-port", One_port); ("two-port", Two_port); ("1p", One_port); ("2p", Two_port) ]

let modes = [ ("steady", Steady); ("batch", Batch) ]
let healths = [ ("healthy", Mode_healthy); ("degraded", Mode_degraded); ("draining", Mode_draining) ]
let spelling table v = fst (List.find (fun (_, x) -> x = v) table)

(* [None] leaves the field off the line: an absent option, or an empty
   fault plan. *)
let rec show : type a. a kind -> a -> string option =
 fun kind v ->
  match kind with
  | Rational _ -> Some (Q.to_string v)
  | Int _ -> Some (string_of_int v)
  | Bool -> Some (spelling bools v)
  | Float -> Some (float_str v)
  | Word -> Some v
  | Order -> Some (spelling orders v)
  | Model -> Some (spelling models v)
  | Mode -> Some (spelling modes v)
  | Health -> Some (spelling healths v)
  | Recovery ->
    Some
      (match v with
      | Replan_none -> "none"
      | Replan_auto -> "auto"
      | Replan_policy p -> Dls.Replan.policy_to_string p)
  | Fault_plan -> if Dls.Faults.is_empty v then None else Some (faults_to_inline v)
  | Platform_spec -> Some (Dls.Platform.to_spec v)
  | Workload_spec -> Some (Dls.Workload.to_spec v)
  | Q_list -> Some (join "," Q.to_string v)
  | Int_list -> Some (join "," string_of_int v)
  | Alloc -> Some (join ";" (join "," Q.to_string) v)
  | Verbs -> Some (String.concat "," v)
  | Opt k -> Option.bind v (show k)

(* Where a parse error is reported: [col] is added per token. *)
type pos = { file : string option; line : int }

let fail pos col fmt = E.parse_error ?file:pos.file ~line:pos.line ~col fmt

let rational pos col v =
  T.rational ?file:pos.file ~line:pos.line { T.text = v; col }

let int pos col v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> fail pos col "not an integer: %S" v

let list read sep v =
  if v = "" then Ok [||]
  else
    let* xs =
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          let* x = read x in
          Ok (x :: acc))
        (Ok []) (String.split_on_char sep v)
    in
    Ok (Array.of_list (List.rev xs))

let keyword pos col what table v =
  match List.assoc_opt v table with
  | Some x -> Ok x
  | None -> fail pos col "expected %s, got %S" what v

(* [read kind pos ~name ~col v] parses the value [v] of field [name],
   whose token starts at column [col]. *)
let rec read : type a. a kind -> pos -> name:string -> col:int -> string -> (a, E.t) result =
 fun kind pos ~name ~col v ->
  let within bound sign x =
    match bound with
    | Positive when sign <= 0 -> fail pos col "%s must be positive" name
    | Non_negative when sign < 0 -> fail pos col "%s must be non-negative" name
    | _ -> Ok x
  in
  match kind with
  | Rational bound ->
    let* q = rational pos col v in
    within bound (Q.sign q) q
  | Int bound ->
    let* n = int pos col v in
    within bound (compare n 0) n
  | Bool -> keyword pos col "true/false" bools v
  | Float -> (
    (* [float_of_string_opt] happily accepts "nan"/"inf"; protocol
       floats are measurements for which a non-finite value can only be
       an upstream bug, so it is rejected. *)
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> fail pos col "non-finite float: %S" v
    | None -> fail pos col "not a float: %S" v)
  | Word -> Ok v
  | Order -> keyword pos col "fifo/lifo" orders v
  | Model -> keyword pos col "one-port/two-port" models v
  | Mode -> keyword pos col "steady/batch" modes v
  | Health -> (
    match List.assoc_opt v healths with
    | Some m -> Ok m
    | None -> fail pos col "unknown health mode %S" v)
  | Recovery -> (
    match v with
    | "none" -> Ok Replan_none
    | "auto" -> Ok Replan_auto
    | _ -> (
      match Dls.Replan.policy_of_string v with
      | Some p -> Ok (Replan_policy p)
      | None -> fail pos col "unknown recovery policy %S" v))
  | Fault_plan -> (
    (* unpack into the Faults text format and reuse its parser; its
       positions are in the unpacked text, so the error is reported at
       the option token with the original message *)
    match Dls.Faults.of_string (String.map (function ';' -> '\n' | ':' -> ' ' | ch -> ch) v) with
    | Error (E.Parse_error { msg; _ }) -> fail pos col "bad fault plan: %s" msg
    | r -> r)
  | Platform_spec -> Dls.Platform.of_spec ?file:pos.file ~line:pos.line ~col v
  | Workload_spec ->
    (* positions inside the spec are relative to the value, which starts
       after "name=" within the token *)
    Dls.Workload.of_spec ?file:pos.file ~line:pos.line ~col:(col + String.length name + 1) v
  | Q_list -> list (rational pos col) ',' v
  | Int_list -> list (int pos col) ',' v
  | Alloc -> list (list (rational pos col) ',') ';' v
  | Verbs -> Ok (if v = "" then [] else String.split_on_char ',' v)
  | Opt k ->
    let* x = read k pos ~name ~col v in
    Ok (Some x)

let split_kv (tok : T.token) =
  match String.index_opt tok.T.text '=' with
  | Some i ->
    Some
      ( String.sub tok.T.text 0 i,
        String.sub tok.T.text (i + 1) (String.length tok.T.text - i - 1) )
  | None -> None

(* [head], the positional spec's bare value if any, then [key=value]
   per field in row order. *)
let render head spec rows r =
  let b = Buffer.create 128 in
  Buffer.add_string b head;
  Option.iter
    (fun (Field f) ->
      Buffer.add_char b ' ';
      Buffer.add_string b (Option.get (show f.kind (f.get r))))
    spec;
  List.iter
    (fun (Field f) ->
      match f.absent with
      | Only_if on when not (on r) -> ()
      | _ -> (
        match show f.kind (f.get r) with
        | Some v ->
          Buffer.add_char b ' ';
          Buffer.add_string b f.name;
          Buffer.add_char b '=';
          Buffer.add_string b v
        | None -> ()))
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Request verbs                                                       *)

type verb =
  | Verb : {
      name : string;
      spec : 'r field option;
      rows : 'r field list;
      seed : 'r;
      check : given:string list -> 'r -> (int * string) option;
      inj : 'r -> request;
      prj : request -> 'r option;
    }
      -> verb

let verb ?spec ?(check = fun ~given:_ _ -> None) name rows seed inj prj =
  Verb { name; spec; rows; seed; check; inj; prj }

(* The positional spec, and the seeds' stand-ins for the platform and
   the workload, which every successful parse overwrites. *)
let platform get set = field "platform" Platform_spec Required get set
let no_platform = Dls.Platform.make_exn [ Dls.Platform.worker ~c:Q.one ~w:Q.one ~d:Q.zero () ]
let no_workload = Dls.Workload.make_exn [ Dls.Workload.load ~size:Q.one () ]

let request_verbs =
  [
    verb "solve"
      ~spec:(platform (fun r -> r.s_platform) (fun r v -> { r with s_platform = v }))
      [
        field "order" Order Seed (fun r -> r.s_order) (fun r v -> { r with s_order = v });
        field "model" Model Seed (fun r -> r.s_model) (fun r v -> { r with s_model = v });
        field "fast" Bool Seed (fun r -> r.s_fast) (fun r v -> { r with s_fast = v });
        field "load" (Opt (Rational Positive)) Seed
          (fun r -> r.s_load) (fun r v -> { r with s_load = v });
      ]
      {
        s_platform = no_platform;
        s_order = Fifo;
        s_model = Dls.Lp_model.One_port;
        s_fast = true;
        s_load = None;
      }
      (fun r -> Solve r)
      (function Solve r -> Some r | _ -> None);
    (* workload= is required, and depth needs mode=batch *)
    verb "solve-multi"
      ~spec:(platform (fun r -> r.u_platform) (fun r v -> { r with u_platform = v }))
      ~check:(fun ~given r ->
        if not (List.mem "workload" given) then
          Some (String.length "solve-multi", "solve-multi needs workload=size:release[:z],...")
        else if r.u_mode = Steady && r.u_depth <> None then
          Some (0, "depth only applies to mode=batch")
        else None)
      [
        field "workload" Workload_spec Required
          (fun r -> r.u_workload) (fun r v -> { r with u_workload = v });
        field "mode" Mode Seed (fun r -> r.u_mode) (fun r v -> { r with u_mode = v });
        field "depth" (Opt (Int Non_negative)) Seed
          (fun r -> r.u_depth) (fun r v -> { r with u_depth = v });
      ]
      { u_platform = no_platform; u_workload = no_workload; u_mode = Steady; u_depth = None }
      (fun r -> Solve_multi r)
      (function Solve_multi r -> Some r | _ -> None);
    verb "simulate"
      ~spec:(platform (fun r -> r.m_platform) (fun r v -> { r with m_platform = v }))
      [
        field "order" Order Seed (fun r -> r.m_order) (fun r v -> { r with m_order = v });
        field "items" (Int Positive) Seed (fun r -> r.m_items) (fun r v -> { r with m_items = v });
        field "faults" (Opt Fault_plan) Seed
          (fun r -> r.m_faults) (fun r v -> { r with m_faults = v });
        field "replan" Recovery Seed (fun r -> r.m_replan) (fun r v -> { r with m_replan = v });
      ]
      {
        m_platform = no_platform;
        m_order = Fifo;
        m_items = 1000;
        m_faults = None;
        m_replan = Replan_auto;
      }
      (fun r -> Simulate r)
      (function Simulate r -> Some r | _ -> None);
    verb "check" ~spec:(platform Fun.id (fun _ p -> p)) [] no_platform
      (fun p -> Check p)
      (function Check p -> Some p | _ -> None);
    verb "stats" [] () (fun () -> Stats) (function Stats -> Some () | _ -> None);
    verb "health" [] () (fun () -> Health) (function Health -> Some () | _ -> None);
    verb "hello" [] () (fun () -> Hello) (function Hello -> Some () | _ -> None);
  ]

let verbs = List.map (fun (Verb v) -> v.name) request_verbs

(* Options are read in token order; a repeated option keeps its last
   value, an unknown one is an error. *)
let parse_verb pos (verb : T.token) rest (Verb v) =
  let* r, opts =
    match (v.spec, rest) with
    | None, [] -> Ok (v.seed, [])
    | None, tok :: _ -> fail pos tok.T.col "%s takes no arguments" v.name
    | Some _, [] ->
      fail pos (verb.T.col + String.length v.name) "%s needs a platform spec (c:w:d,...)" v.name
    | Some (Field f), spec :: opts ->
      let* p = read f.kind pos ~name:f.name ~col:spec.T.col spec.T.text in
      Ok (f.set v.seed p, opts)
  in
  let* r, given =
    match (v.rows, opts) with
    | [], tok :: _ -> fail pos tok.T.col "%s takes no options" v.name
    | rows, opts ->
      List.fold_left
        (fun acc (tok : T.token) ->
          let* r, given = acc in
          match split_kv tok with
          | None -> fail pos tok.T.col "expected key=value, got %S" tok.T.text
          | Some (k, x) -> (
            match List.find_opt (fun (Field f) -> f.name = k) rows with
            | None -> fail pos tok.T.col "unknown %s option %S" v.name k
            | Some (Field f) ->
              let* x = read f.kind pos ~name:k ~col:tok.T.col x in
              Ok (f.set r x, k :: given)))
        (Ok (r, [])) opts
  in
  match v.check ~given r with
  | Some (off, msg) -> fail pos (verb.T.col + off) "%s" msg
  | None -> Ok (v.inj r)

let parse_request_v ?file ~line s =
  match T.tokens s with
  | [] -> `Malformed (E.Parse_error { file; line; col = 1; msg = "empty request" })
  | verb :: rest -> (
    match List.find_opt (fun (Verb v) -> v.name = verb.T.text) request_verbs with
    | None -> `Unknown_verb verb.T.text
    | Some v -> (
      match parse_verb { file; line } verb rest v with
      | Ok r -> `Request r
      | Error e -> `Malformed e))

let parse_request ?file ~line s =
  match parse_request_v ?file ~line s with
  | `Request r -> Ok r
  | `Malformed e -> Error e
  | `Unknown_verb other ->
    let col = match T.tokens s with tok :: _ -> tok.T.col | [] -> 1 in
    E.parse_error ?file ~line ~col "unknown request %S (expected %s)" other
      (String.concat "/" verbs)

let request_to_string req =
  List.find_map
    (fun (Verb v) ->
      match v.prj req with Some r -> Some (render v.name v.spec v.rows r) | None -> None)
    request_verbs
  |> Option.get

let request_key = request_to_string

(* ------------------------------------------------------------------ *)
(* Stats fields                                                        *)

(* The stats record's rows, in wire order, each with its merge rule
   across shards.  The [ok stats] line, its JSON, [merge_stats], the
   parser and [stats_of] (hence [Metrics.snapshot]) are loops over it.

   Merge: counters add up across shards; the evaluation/latency maxima
   stay maxima (a merged quantile of power-of-two bucket bounds is not
   reconstructible, so the conservative upper envelope is reported);
   [uptime_s] is the oldest shard's — the merged endpoint has been
   serving at least that long.

   Absent: the [Seed] fields arrived with later servers (repair,
   resilience, scale-out), which were the first to do what they count,
   so an older line without them reads as [stats_seed]: 0.  The
   retired [dispatchers] and [steals] rows are unknown keys now, which
   a reply parser ignores, so an older daemon's line still parses. *)

type merge = Sum | Max

let stats_fields =
  let count name merge absent get set = (merge, field name (Int Any) absent get set) in
  [
    count "accepted" Sum Required (fun r -> r.accepted) (fun r v -> { r with accepted = v });
    count "served" Sum Required (fun r -> r.served) (fun r v -> { r with served = v });
    count "rejected" Sum Required (fun r -> r.rejected) (fun r v -> { r with rejected = v });
    count "timed_out" Sum Required (fun r -> r.timed_out) (fun r v -> { r with timed_out = v });
    count "failed" Sum Required (fun r -> r.failed) (fun r v -> { r with failed = v });
    count "malformed" Sum Required (fun r -> r.malformed) (fun r v -> { r with malformed = v });
    count "batches" Sum Required (fun r -> r.batches) (fun r v -> { r with batches = v });
    count "max_batch" Max Required (fun r -> r.max_batch) (fun r v -> { r with max_batch = v });
    count "collapsed" Sum Required (fun r -> r.collapsed) (fun r v -> { r with collapsed = v });
    count "cache_hits" Sum Required (fun r -> r.cache_hits) (fun r v -> { r with cache_hits = v });
    count "cache_misses" Sum Required
      (fun r -> r.cache_misses) (fun r v -> { r with cache_misses = v });
    count "repair_probes" Sum Seed
      (fun r -> r.repair_probes) (fun r v -> { r with repair_probes = v });
    count "repair_wins" Sum Seed (fun r -> r.repair_wins) (fun r v -> { r with repair_wins = v });
    count "repair_pivots" Sum Seed
      (fun r -> r.repair_pivots) (fun r v -> { r with repair_pivots = v });
    count "shed" Sum Seed (fun r -> r.shed) (fun r v -> { r with shed = v });
    count "brownouts" Sum Seed (fun r -> r.brownouts) (fun r v -> { r with brownouts = v });
    count "hangups" Sum Seed (fun r -> r.hangups) (fun r v -> { r with hangups = v });
    count "warm_hits" Sum Seed (fun r -> r.warm_hits) (fun r v -> { r with warm_hits = v });
    count "journal_appended" Sum Seed
      (fun r -> r.journal_appended) (fun r v -> { r with journal_appended = v });
    count "store_hits" Sum Seed (fun r -> r.store_hits) (fun r v -> { r with store_hits = v });
    count "store_misses" Sum Seed
      (fun r -> r.store_misses) (fun r v -> { r with store_misses = v });
    count "store_demoted" Sum Seed
      (fun r -> r.store_demoted) (fun r v -> { r with store_demoted = v });
    count "compactions" Sum Seed (fun r -> r.compactions) (fun r v -> { r with compactions = v });
    count "queue_depth" Sum Required
      (fun r -> r.queue_depth) (fun r v -> { r with queue_depth = v });
    count "inflight" Sum Required (fun r -> r.inflight) (fun r v -> { r with inflight = v });
    count "p50_us" Max Required (fun r -> r.p50_us) (fun r v -> { r with p50_us = v });
    count "p90_us" Max Required (fun r -> r.p90_us) (fun r v -> { r with p90_us = v });
    count "p99_us" Max Required (fun r -> r.p99_us) (fun r v -> { r with p99_us = v });
    count "max_us" Max Required (fun r -> r.max_us) (fun r v -> { r with max_us = v });
    (Max, field "uptime_s" Float Required (fun r -> r.uptime_s) (fun r v -> { r with uptime_s = v }));
  ]

let stats_rows = List.map snd stats_fields

let stats_seed =
  {
    accepted = 0; served = 0; rejected = 0; timed_out = 0; failed = 0; malformed = 0;
    batches = 0; max_batch = 0; collapsed = 0; cache_hits = 0; cache_misses = 0;
    repair_probes = 0; repair_wins = 0; repair_pivots = 0; shed = 0; brownouts = 0;
    hangups = 0; warm_hits = 0; journal_appended = 0; store_hits = 0; store_misses = 0;
    store_demoted = 0; compactions = 0;
    queue_depth = 0; inflight = 0; p50_us = 0; p90_us = 0; p99_us = 0; max_us = 0;
    uptime_s = 0.;
  }

let stats_of ~(count : string -> int) ~(seconds : string -> float) =
  List.fold_left
    (fun r (Field f) ->
      match f.kind with
      | Int _ -> f.set r (count f.name)
      | Float -> f.set r (seconds f.name)
      | _ -> r)
    stats_seed stats_rows

let stats_to_json r =
  "{"
  ^ String.concat ","
      (List.map
         (fun (Field f) ->
           Printf.sprintf "\"%s\":%s" f.name (Option.get (show f.kind (f.get r))))
         stats_rows)
  ^ "}"

let merge_stat : type a. a kind -> merge -> a -> a -> a =
 fun kind merge a b ->
  match (kind, merge) with
  | Int _, Sum -> a + b
  | Int _, Max -> max a b
  | Float, Sum -> a +. b
  | Float, Max -> Float.max a b
  | _ -> a

let merge_stats (first : stats_rep) (rest : stats_rep list) =
  List.fold_left
    (fun a r ->
      List.fold_left
        (fun m (merge, Field f) -> f.set m (merge_stat f.kind merge (f.get a) (f.get r)))
        a stats_fields)
    first rest

(* ------------------------------------------------------------------ *)
(* Response kinds                                                      *)

type reply =
  | Reply : {
      head : string;
      rows : 'r field list;
      seed : 'r;
      inj : 'r -> response;
      prj : response -> 'r option;
    }
      -> reply

let reply head rows seed inj prj = Reply { head; rows; seed; inj; prj }

let replies =
  [
    reply "ok solve"
      [
        field "rho" (Rational Any) Required (fun r -> r.rho) (fun r v -> { r with rho = v });
        field "sigma1" Int_list Required (fun r -> r.sigma1) (fun r v -> { r with sigma1 = v });
        field "alpha" Q_list Required (fun r -> r.alpha) (fun r v -> { r with alpha = v });
        field "idle" Q_list Required (fun r -> r.idle) (fun r v -> { r with idle = v });
        field "makespan" (Opt (Rational Any)) Seed
          (fun r -> r.makespan) (fun r v -> { r with makespan = v });
      ]
      { rho = Q.zero; sigma1 = [||]; alpha = [||]; idle = [||]; makespan = None }
      (fun r -> Ok_solve r)
      (function Ok_solve r -> Some r | _ -> None);
    (* the value's key says what it is: the steady-state period or the
       batch makespan *)
    reply "ok multi"
      [
        field "mode" Mode Required (fun r -> r.mm_mode) (fun r v -> { r with mm_mode = v });
        field "period" (Rational Any)
          (Only_if (fun r -> r.mm_mode = Steady))
          (fun r -> r.mm_value) (fun r v -> { r with mm_value = v });
        field "makespan" (Rational Any)
          (Only_if (fun r -> r.mm_mode = Batch))
          (fun r -> r.mm_value) (fun r v -> { r with mm_value = v });
        field "throughput" (Rational Any) Required
          (fun r -> r.mm_throughput) (fun r v -> { r with mm_throughput = v });
        field "depth" (Opt (Int Any)) Seed
          (fun r -> r.mm_depth) (fun r v -> { r with mm_depth = v });
        field "alloc" Alloc Required (fun r -> r.mm_alloc) (fun r v -> { r with mm_alloc = v });
      ]
      {
        mm_mode = Steady;
        mm_value = Q.zero;
        mm_throughput = Q.zero;
        mm_depth = None;
        mm_alloc = [||];
      }
      (fun r -> Ok_multi r)
      (function Ok_multi r -> Some r | _ -> None);
    reply "ok simulate"
      [
        field "makespan" Float Required
          (fun r -> r.sim_makespan) (fun r v -> { r with sim_makespan = v });
        field "lp" Float Required
          (fun r -> r.lp_makespan) (fun r v -> { r with lp_makespan = v });
        field "valid" Bool Required
          (fun r -> r.sim_valid) (fun r v -> { r with sim_valid = v });
        field "achieved" (Opt Float) Seed
          (fun r -> r.achieved) (fun r v -> { r with achieved = v });
        field "ratio" (Opt Float) Seed
          (fun r -> r.achieved_ratio) (fun r v -> { r with achieved_ratio = v });
        field "replan" (Opt Word) Seed
          (fun r -> r.replanned) (fun r v -> { r with replanned = v });
      ]
      {
        sim_makespan = 0.;
        lp_makespan = 0.;
        sim_valid = false;
        achieved = None;
        achieved_ratio = None;
        replanned = None;
      }
      (fun r -> Ok_simulate r)
      (function Ok_simulate r -> Some r | _ -> None);
    reply "ok check"
      [
        field "valid" Bool Required (fun r -> r.check_ok) (fun r v -> { r with check_ok = v });
        field "violations" (Int Any) Required
          (fun r -> r.violations) (fun r v -> { r with violations = v });
      ]
      { check_ok = false; violations = 0 }
      (fun r -> Ok_check r)
      (function Ok_check r -> Some r | _ -> None);
    reply "ok stats" stats_rows stats_seed
      (fun r -> Ok_stats r)
      (function Ok_stats r -> Some r | _ -> None);
    (* pre-resilience servers spoke only the two booleans: an absent mode
       is derived from them, so new clients keep parsing old lines *)
    reply "ok health"
      [
        field "healthy" Bool Required (fun r -> r.healthy) (fun r v -> { r with healthy = v });
        field "draining" Bool Required
          (fun r -> r.draining) (fun r v -> { r with draining = v });
        field "mode" Health
          (Derived
             (fun r ->
               let h_mode =
                 if r.draining then Mode_draining
                 else if r.healthy then Mode_healthy
                 else Mode_degraded
               in
               { r with h_mode }))
          (fun r -> r.h_mode) (fun r v -> { r with h_mode = v });
        field "uptime_s" Float Required
          (fun r -> r.h_uptime_s) (fun r v -> { r with h_uptime_s = v });
        field "queue" (Int Any) Required
          (fun r -> r.h_queue_depth) (fun r v -> { r with h_queue_depth = v });
        field "capacity" (Int Any) Required
          (fun r -> r.h_capacity) (fun r v -> { r with h_capacity = v });
        field "workers" (Int Any) Required
          (fun r -> r.h_workers) (fun r v -> { r with h_workers = v });
      ]
      {
        healthy = false;
        draining = false;
        h_mode = Mode_healthy;
        h_uptime_s = 0.;
        h_queue_depth = 0;
        h_capacity = 0;
        h_workers = 0;
      }
      (fun r -> Ok_health r)
      (function Ok_health r -> Some r | _ -> None);
    reply "ok hello"
      [
        field "version" (Int Any) Required
          (fun r -> r.server_version) (fun r v -> { r with server_version = v });
        field "min" (Int Any) Required
          (fun r -> r.server_min_version) (fun r v -> { r with server_min_version = v });
        field "verbs" Verbs Required
          (fun r -> r.server_verbs) (fun r v -> { r with server_verbs = v });
      ]
      { server_version = 0; server_min_version = 0; server_verbs = [] }
      (fun r -> Ok_hello r)
      (function Ok_hello r -> Some r | _ -> None);
    (* the inline-record replies parse into pairs *)
    reply "overloaded"
      [
        field "depth" (Int Any) Required fst (fun (_, c) d -> (d, c));
        field "capacity" (Int Any) Required snd (fun (d, _) c -> (d, c));
      ]
      (0, 0)
      (fun (depth, capacity) -> Overloaded { depth; capacity })
      (function Overloaded { depth; capacity } -> Some (depth, capacity) | _ -> None);
    reply "timeout"
      [ field "budget" Float Required Fun.id (fun _ b -> b) ]
      0.
      (fun budget -> Timed_out { budget })
      (function Timed_out { budget } -> Some budget | _ -> None);
    reply "shed"
      [
        field "wait" Float Required fst (fun (_, b) w -> (w, b));
        field "budget" Float Required snd (fun (w, _) b -> (w, b));
      ]
      (0., 0.)
      (fun (wait, budget) -> Shed { wait; budget })
      (function Shed { wait; budget } -> Some (wait, budget) | _ -> None);
    reply "unsupported"
      [
        field "verb" Word Required fst (fun (_, n) v -> (v, n));
        field "version" (Int Any) Required snd (fun (v, _) n -> (v, n));
      ]
      ("", 0)
      (fun (verb, server_version) -> Unsupported { verb; server_version })
      (function Unsupported { verb; server_version } -> Some (verb, server_version) | _ -> None);
  ]

(* ------------------------------------------------------------------ *)
(* Response rendering and parsing                                      *)

(* [error <code> <message...>] carries a free-text tail: newlines are
   flattened on the way out, and the tokens after the fixed prefix are
   rejoined on the way in, so interior spacing collapses to single
   blanks (the renderer never emits more anyway). *)
let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s
let rest_as_string toks = String.concat " " (List.map (fun t -> t.T.text) toks)

let error_to_string (e : E.t) =
  match e with
  | E.Unbounded -> "error unbounded"
  | E.Infeasible -> "error infeasible"
  | E.Invalid_scenario msg -> "error invalid " ^ one_line msg
  | E.Io_error msg -> "error io " ^ one_line msg
  | E.Parse_error { line; col; msg; file = _ } ->
    Printf.sprintf "error parse line=%d col=%d %s" line col (one_line msg)

let response_to_string = function
  | Failed e -> error_to_string e
  | resp ->
    List.find_map
      (fun (Reply k) ->
        match k.prj resp with Some r -> Some (render k.head None k.rows r) | None -> None)
      replies
    |> Option.get

let is_ok = function
  | Ok_solve _ | Ok_multi _ | Ok_simulate _ | Ok_check _ | Ok_stats _
  | Ok_health _ | Ok_hello _ ->
    true
  | Overloaded _ | Timed_out _ | Shed _ | Unsupported _ | Failed _ -> false

let response_pos = { file = None; line = 1 }

(* Fields are read in row order and looked up by key: the last
   occurrence wins, unknown keys are ignored, a missing [Required] field
   is an error. *)
let parse_reply (Reply k) toks =
  let* kvs =
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        match split_kv tok with
        | Some (key, v) -> Ok ((key, (tok, v)) :: acc)
        | None -> fail response_pos tok.T.col "expected key=value, got %S" tok.T.text)
      (Ok []) toks
  in
  let* r =
    List.fold_left
      (fun acc (Field f) ->
        let* r = acc in
        match (List.assoc_opt f.name kvs, f.absent) with
        | _, Only_if on when not (on r) -> Ok r
        | None, Seed -> Ok r
        | None, Derived derive -> Ok (derive r)
        | None, (Required | Only_if _) ->
          fail response_pos 1 "response misses field %S" f.name
        | Some ((tok : T.token), v), _ ->
          let* x = read f.kind response_pos ~name:f.name ~col:tok.T.col v in
          Ok (f.set r x))
      (Ok k.seed) k.rows
  in
  Ok (k.inj r)

let find_reply head = List.find_opt (fun (Reply k) -> k.head = head) replies

let parse_error_reply (code : T.token) rest =
  match (code.T.text, rest) with
  | "unbounded", _ -> Ok (Failed E.Unbounded)
  | "infeasible", _ -> Ok (Failed E.Infeasible)
  | "invalid", _ -> Ok (Failed (E.Invalid_scenario (rest_as_string rest)))
  | "io", _ -> Ok (Failed (E.Io_error (rest_as_string rest)))
  | "parse", lt :: ct :: msg_toks -> (
    match (split_kv lt, split_kv ct) with
    | Some ("line", lv), Some ("col", cv) ->
      let* line = int response_pos lt.T.col lv in
      let* col = int response_pos ct.T.col cv in
      Ok (Failed (E.Parse_error { file = None; line; col; msg = rest_as_string msg_toks }))
    | _ -> fail response_pos lt.T.col "error parse needs line= and col=")
  | "parse", _ -> fail response_pos code.T.col "error parse needs line= and col="
  | other, _ -> fail response_pos code.T.col "unknown error code %S" other

(* A reply has no comments: a ['#'] is part of its text. *)
let parse_response s =
  match T.words s with
  | [] -> fail response_pos 1 "empty response"
  | { T.text = "error"; _ } :: code :: rest -> parse_error_reply code rest
  | { T.text = "error"; col } :: [] -> fail response_pos col "error response misses its code"
  | { T.text = "ok"; _ } :: kind :: rest -> (
    match find_reply ("ok " ^ kind.T.text) with
    | Some k -> parse_reply k rest
    | None -> fail response_pos kind.T.col "unknown response kind %S" kind.T.text)
  | { T.text = "ok"; col } :: [] -> fail response_pos col "ok response misses its kind"
  | tok :: rest -> (
    match find_reply tok.T.text with
    | Some k -> parse_reply k rest
    | None ->
      fail response_pos tok.T.col
        "unknown response status %S (expected ok/overloaded/timeout/shed/error)"
        tok.T.text)
