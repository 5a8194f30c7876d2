(** The scheduler-as-a-service wire protocol.

    Line-oriented, in the {!Dls.Text_format} style: one request per
    line, one response per line, whitespace-separated tokens, [#]
    comments and blank lines ignored on the request side.  Everything is
    plain text, so a session is scriptable with [nc]/[socat] and every
    frame is greppable in a packet capture.

    {2 Request grammar}

    {v
    request  := "solve"       spec option*
              | "solve-multi" spec option*
              | "simulate"    spec option*
              | "check"       spec option*
              | "stats"
              | "health"
              | "hello"
    spec     := c:w:d[,c:w:d ...]          rational components
    option   := key=value                  (no spaces inside a token)
    v}

    Options by request kind:
    - [solve]: [order=fifo|lifo] (default fifo), [model=one-port|two-port],
      [fast=true|false] (default true), [load=Q] (also report the
      makespan for [load] items);
    - [solve-multi]: [workload=size:release[:z],...] (required — the
      {!Dls.Workload.of_spec} form), [mode=steady|batch] (default
      steady), [depth=N] (batch only; omitted = best over depths 0..2);
    - [simulate]: [order=], [items=N] (default 1000),
      [faults=kind:args[;kind:args ...]] — the {!Dls.Faults} text format
      with [;] for newline and [:] for the field separator, e.g.
      [faults=slowdown:2:3/2:1/4;crash:0:5/8] — and
      [replan=resolve|drop|margin:M|none|auto] (default [auto]: try every
      policy, keep the best; only meaningful with [faults]);
    - [check]: none.

    {2 Response grammar}

    A response starts with a status token: [ok <kind> key=value ...],
    [overloaded depth=N capacity=N], [timeout budget=S],
    [shed wait=S budget=S] (deadline-aware admission turned the request
    away because the predicted queue wait already exceeds the budget),
    or [error <code> <message...>].  {!parse_response} inverts
    {!response_to_string} exactly; rationals are rendered in lowest
    terms, floats with enough digits to round-trip.

    Parsers never raise: malformed input yields a typed
    {!Dls.Errors.Parse_error} with 1-based line/column positions, like
    the {!Dls.Platform_io} / {!Dls.Schedule_io} suites.

    {2 One field table per verb}

    Each request verb ({!request_verbs}) and response kind
    ({!replies}) is one row list plus a seed record; parsing,
    rendering, {!request_key}, {!verbs} and the test generators are
    loops over them (see {{!section-tables} the field tables}).
    test_service's "protocol pinned wire bytes and errors" holds the
    bytes and every parse error's position and message to
    [test/fixtures/pinned_protocol.txt], recorded from the hand-written
    codec the tables replaced; the "protocol qcheck …" cases round-trip
    every verb and reply drawn from its rows.

    {2 Versioning}

    The protocol carries a version number ({!version}); a client opens
    with [hello] and the server answers [ok hello version=V min=M
    verbs=...].  Verbs the server does not know yield the typed
    [unsupported verb=... version=V] response (never a hard parse
    error), so an old server talking to a new client degrades
    gracefully: the client sees which verb was refused and the version
    the server speaks. *)

module Q = Numeric.Rational

(** Protocol version spoken by this build, and the oldest version whose
    requests it still accepts. *)
val version : int

val min_version : int

(** Every verb this build understands, in the canonical order rendered
    by [hello]. *)
val verbs : string list

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
      (** [Batch] only: fixed interleaving depth; [None] = best over
          depths 0..2 ({!Dls.Steady_state.solve_batch_best}) *)
}

type request =
  | Solve of solve_req
  | Solve_multi of multi_req
  | Simulate of simulate_req
  | Check of Dls.Platform.t
  | Stats
  | Health
  | Hello

(** Exact solver answer; [alpha]/[idle] are platform-indexed, [sigma1]
    is the sending order — together with [rho] this is bit-comparable
    to a direct {!Dls.Solve.solve} on the same scenario. *)
type solve_rep = {
  rho : Q.t;
  sigma1 : int array;
  alpha : Q.t array;
  idle : Q.t array;
  makespan : Q.t option;  (** [load / rho] when the request carried [load] *)
}

type simulate_rep = {
  sim_makespan : float;  (** observed completion of the (perturbed) run *)
  lp_makespan : float;  (** fault-free LP prediction *)
  sim_valid : bool;  (** the emitted trace passes the validator *)
  achieved : float option;  (** load returned by the deadline (faulted runs) *)
  achieved_ratio : float option;
  replanned : string option;  (** recovery policy spliced in, if any *)
}

(** Multi-load answer.  [mm_value] is the steady-state period or the
    batch makespan (by [mm_mode]); [mm_throughput] is
    [total_size / mm_value]; [mm_alloc] is the load-major allocation
    (steady) or chunk (batch) matrix, platform-indexed columns. *)
type multi_rep = {
  mm_mode : multi_mode;
  mm_value : Q.t;
  mm_throughput : Q.t;
  mm_depth : int option;  (** batch only: the depth that won *)
  mm_alloc : Q.t array array;
}

type check_rep = { check_ok : bool; violations : int }

type hello_rep = {
  server_version : int;
  server_min_version : int;
  server_verbs : string list;
}

(** Serving counters; the invariant after a drain (no requests in
    flight) is [accepted = served + timed_out + failed + shed].

    The [ok stats] entry of {!replies} gives every field's wire name,
    value kind and wire default, and the implementation pairs each row
    with its merge rule; the [ok stats] line, {!stats_to_json},
    {!merge_stats}, the parser and {!stats_of} are loops over it.  A new
    field is a field here and in the implementation, a row of the table
    and a line of its seed. *)
type stats_rep = {
  accepted : int;  (** admitted to the request queue *)
  served : int;  (** answered with an [ok] response *)
  rejected : int;  (** turned away with [overloaded] (backpressure) *)
  timed_out : int;  (** exceeded the per-request budget *)
  failed : int;  (** admitted but answered with [error] *)
  malformed : int;  (** unparseable request lines (never admitted) *)
  batches : int;  (** evaluations run *)
  max_batch : int;
      (** most admitted requests one evaluation answered: the first
          and the duplicates that joined it *)
  collapsed : int;
      (** duplicates that joined an evaluation already in flight *)
  cache_hits : int;  (** LP-cache hits across the whole process *)
  cache_misses : int;
  repair_probes : int;
      (** always 0 from this daemon: a cache miss no longer probes for a
          neighbour to repair (the three [repair_*] fields stay so the
          stats line keeps its 30 fields); 0 when absent on the wire *)
  repair_wins : int;  (** always 0 from this daemon *)
  repair_pivots : int;  (** always 0 from this daemon *)
  shed : int;
      (** accepted but answered [shed] at admission: the predicted
          queue wait already exceeded the request budget, so queueing
          the work would only have produced a later [timeout].  Counts
          toward [accepted]; 0 when absent on the wire *)
  brownouts : int;
      (** times sustained overload switched the server into brownout
          (forced [`Fast] solve mode); 0 when absent on the wire *)
  hangups : int;
      (** connections that vanished mid-request or before their
          response could be written; 0 when absent on the wire *)
  warm_hits : int;
      (** requests answered from the tier-1 response cache at
          admission, without touching the queue; 0 when absent *)
  journal_appended : int;
      (** records this process appended to the store ({!Store.stats});
          the name predates the store *)
  store_hits : int;
      (** tier-1 LRU misses answered from the shared tier-2 solution
          store at admission; 0 when absent on the wire (pre-scale-out
          servers) *)
  store_misses : int;
      (** tier-2 store probes that found nothing and went on to solve;
          0 when absent *)
  store_demoted : int;
      (** tier-1 response-cache evictions while a tier-2 store was
          attached — those entries now live only in the store; 0 when
          absent *)
  compactions : int;
      (** store compactions triggered by [--journal-max-bytes]; 0
          when absent *)
  queue_depth : int;
  inflight : int;  (** admitted but not yet answered *)
  p50_us : int;  (** latency quantiles, admission to response, in us *)
  p90_us : int;
  p99_us : int;
  max_us : int;
  uptime_s : float;
}

(** Coarse serving state: [Mode_degraded] means the daemon is up but
    browning out (forcing [`Fast] solves) or otherwise shedding load;
    [Mode_draining] means it stopped accepting work and is finishing
    what it has. *)
type health_mode = Mode_healthy | Mode_degraded | Mode_draining

type health_rep = {
  healthy : bool;
  draining : bool;
  h_mode : health_mode;
      (** derived from [healthy]/[draining] when absent on the wire
          (pre-resilience servers) *)
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
      (** deadline-aware admission: the predicted queue wait [wait]
          already exceeds the per-request budget, so the server refuses
          to queue work it knows it would time out.  Unlike
          [Overloaded] (a backpressure signal worth retrying after a
          backoff), [Shed] is authoritative for the attempted deadline. *)
  | Unsupported of { verb : string; server_version : int }
      (** the verb is not in this server's {!verbs} *)
  | Failed of Dls.Errors.t

(** [parse_request ~line s] parses one request line ([line] is the
    1-based position used in error reports).  Never raises. *)
val parse_request : ?file:string -> line:int -> string -> (request, Dls.Errors.t) result

(** [parse_request_v ~line s] distinguishes a verb this build does not
    know ([`Unknown_verb]) from a malformed line: the server answers the
    former with {!Unsupported} and only the latter with a parse error.
    [parse_request] folds [`Unknown_verb] back into a parse error. *)
val parse_request_v :
  ?file:string ->
  line:int ->
  string ->
  [ `Request of request | `Unknown_verb of string | `Malformed of Dls.Errors.t ]

(** [request_to_string r] renders the canonical request line:
    [parse_request] inverts it (worker names are positional, [P1..Pn]).
    Two requests with equal canonical lines are semantically identical,
    which is exactly the single-flight collapse criterion — see
    {!request_key}. *)
val request_to_string : request -> string

(** [request_key r] is the request fingerprint used by the server's
    single-flight batching: requests with equal keys receive the same
    response and may be served by one evaluation.  Currently the
    canonical request line. *)
val request_key : request -> string

(** [parse_response s] parses one response line.  Never raises. *)
val parse_response : string -> (response, Dls.Errors.t) result

val response_to_string : response -> string

(** [is_ok r] holds on the [Ok_*] constructors. *)
val is_ok : response -> bool

(** [stats_to_json r] renders the stats record as one flat JSON object
    — exactly the fields of the [ok stats ...] line, same names, same
    order, so CI and dashboards need not scrape the text format. *)
val stats_to_json : stats_rep -> string

(** [merge_stats first rest] folds shard stats into the view a client
    of the whole fleet should see: counters ([accepted], [served],
    [cache_hits], ...) add up; [max_batch] and the latency fields [p50_us]/[p90_us]/
    [p99_us]/[max_us] take the per-shard maximum (bucketed quantiles do
    not merge, so the upper envelope is reported); [uptime_s] is the
    oldest shard's.  The router answers [stats] with this merge over
    every reachable shard. *)
val merge_stats : stats_rep -> stats_rep list -> stats_rep

(** [stats_of ~count ~seconds] builds a stats record from each field's
    wire name: [count name] for the integer fields, [seconds name] for
    [uptime_s].  {!Metrics.snapshot} builds its record this way. *)
val stats_of :
  count:(string -> int) -> seconds:(string -> float) -> stats_rep

(** {2:tables The field tables}

    A row names a [key=value] field, its value {!kind} and what its
    absence means; adding a field to a verb is one row plus its record
    field.  What is not a plain field stays explicit beside the rows:
    the positional platform spec, solve-multi's cross-field rule, the
    [error] replies' free-text tails. *)

(** Range check of a numeric kind; a violation is reported as
    ["<key> must be positive"] / ["... non-negative"]. *)
type bound = Any | Positive | Non_negative

(** A value kind: how one field's value is written and read. *)
type _ kind =
  | Rational : bound -> Q.t kind  (** lowest terms *)
  | Int : bound -> int kind
  | Bool : bool kind  (** [true|false]; [1|0] also read *)
  | Float : float kind  (** shortest round-trip decimal; finite only *)
  | Word : string kind  (** the token verbatim *)
  | Order : order kind
  | Model : Dls.Lp_model.model kind
  | Mode : multi_mode kind
  | Health : health_mode kind
  | Recovery : replan kind
  | Fault_plan : Dls.Faults.plan kind
      (** the {!Dls.Faults} text with [;]/[:]; an empty plan is left
          off the line *)
  | Platform_spec : Dls.Platform.t kind  (** {!Dls.Platform.of_spec} *)
  | Workload_spec : Dls.Workload.t kind  (** {!Dls.Workload.of_spec} *)
  | Q_list : Q.t array kind  (** comma-separated *)
  | Int_list : int array kind
  | Alloc : Q.t array array kind  (** rows of a [Q_list], [;]-separated *)
  | Verbs : string list kind
  | Opt : 'a kind -> 'a option kind  (** [None] is left off the line *)

(** What a field's absence from a line means. *)
type 'r absent =
  | Required  (** the line must carry it *)
  | Seed  (** the seed record's value stands *)
  | Derived of ('r -> 'r)  (** computed from the fields before it *)
  | Only_if of ('r -> bool)
      (** on the line exactly when the fields before it say so *)

type 'r field =
  | Field : {
      name : string;  (** the key *)
      kind : 'a kind;
      absent : 'r absent;
      get : 'r -> 'a;
      set : 'r -> 'a -> 'r;
    }
      -> 'r field

(** A request verb: its positional platform spec (if any), its option
    rows in canonical order, the seed record an option-less line parses
    to (the defaults), and [check], a rule across fields: [Some (off,
    msg)] rejects the line at [off] columns after the verb's start.
    [given] lists the keys on the line. *)
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

(** A response kind: its leading tokens ([ok solve], [overloaded], ...),
    its rows in wire order and the seed record parsing starts from.
    [Failed] ([error ...]) is not a row table: its message is free
    text. *)
type reply =
  | Reply : {
      head : string;
      rows : 'r field list;
      seed : 'r;
      inj : 'r -> response;
      prj : response -> 'r option;
    }
      -> reply

val request_verbs : verb list
val replies : reply list
