(* Consistent-hash front router.  See router.mli for the contract.

   Thread model: the shared Endpoint, one thread per front connection,
   synchronous request/response per line (the protocol is strictly
   request/response, so nothing is lost by not pipelining).  Backend
   connections live in per-shard pools of Resilient clients: a
   connection thread borrows one for the duration of a single proxied
   request and returns it — breaker state included, so a tripped
   breaker fast-fails every borrower until its cooldown, which is
   exactly the per-backend policy we want. *)

module E = Dls.Errors
module P = Protocol

type config = {
  address : Endpoint.address;
  shard_addresses : Endpoint.address list;
  attempts : int;
  attempt_timeout : float option;
}

let default_config address ~shard_addresses =
  { address; shard_addresses; attempts = 2; attempt_timeout = Some 1.0 }

(* Ring points per shard: arc-length deviation shrinks like
   ~1/sqrt(vnodes), and 128 keeps every shard's share of keys within
   about 20% of even across realistic fleet sizes. *)
let vnodes = 128

type stats = {
  r_requests : int;
  r_routed : int array;
  r_failovers : int;
  r_unavailable : int;
  r_local : int;
  r_fanouts : int;
  r_hangups : int;
}

type pool = {
  pm : Mutex.t;
  rcfg : Resilient.config;
  mutable free : Resilient.t list;
  mutable all : Resilient.t list;
}

type t = {
  cfg : config;
  ring : Ring.t;
  pools : pool array;
  endpoint : Endpoint.t;
  m_requests : int Atomic.t;
  m_routed : int Atomic.t array;
  m_failovers : int Atomic.t;
  m_unavailable : int Atomic.t;
  m_local : int Atomic.t;
  m_fanouts : int Atomic.t;
  m_hangups : int Atomic.t;
}

let address t = Endpoint.address t.endpoint
let shard_of_key t key = Ring.lookup t.ring key

(* Stable shard identity for ring placement: the rendered address.
   Equal shard lists therefore give bit-identical rings in the router,
   the tests, and any future second router instance. *)
let shard_name = function
  | Endpoint.Unix_socket path -> "unix:" ^ path
  | Endpoint.Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let borrow pool =
  Mutex.lock pool.pm;
  let client =
    match pool.free with
    | c :: rest ->
        pool.free <- rest;
        c
    | [] ->
        let c = Resilient.create pool.rcfg in
        pool.all <- c :: pool.all;
        c
  in
  Mutex.unlock pool.pm;
  client

let give_back pool c =
  Mutex.lock pool.pm;
  pool.free <- c :: pool.free;
  Mutex.unlock pool.pm

let with_shard t i f =
  let pool = t.pools.(i) in
  let c = borrow pool in
  let result = f c in
  give_back pool c;
  result

(* ------------------------------------------------------------------ *)
(* Control plane: local answers and fan-out merges                     *)

let hello_rep =
  P.Ok_hello
    {
      server_version = P.version;
      server_min_version = P.min_version;
      server_verbs = P.verbs;
    }

(* Fan [req] out to every shard, keeping the well-formed answers that
   [pick] accepts.  Unreachable shards are skipped — the merge reports
   the reachable fleet, and [shards_total] lets health say whether that
   is everyone. *)
let fan_out t req ~pick =
  Atomic.incr t.m_fanouts;
  let answers = ref [] in
  Array.iteri
    (fun i _ ->
      match with_shard t i (fun c -> Resilient.request c req) with
      | Ok resp -> (
          match pick resp with
          | Some x -> answers := x :: !answers
          | None -> ())
      | Error _ -> ())
    t.pools;
  List.rev !answers

let merged_stats t =
  match fan_out t P.Stats ~pick:(function P.Ok_stats s -> Some s | _ -> None)
  with
  | [] -> P.Failed (E.Io_error "router: no shard reachable")
  | s :: rest -> P.Ok_stats (P.merge_stats s rest)

let merged_health t =
  let shards_total = Array.length t.pools in
  let answers =
    fan_out t P.Health ~pick:(function P.Ok_health h -> Some h | _ -> None)
  in
  match answers with
  | [] -> P.Failed (E.Io_error "router: no shard reachable")
  | first :: rest ->
      let all_reachable = List.length answers = shards_total in
      let worst a b =
        match (a, b) with
        | P.Mode_draining, _ | _, P.Mode_draining -> P.Mode_draining
        | P.Mode_degraded, _ | _, P.Mode_degraded -> P.Mode_degraded
        | P.Mode_healthy, P.Mode_healthy -> P.Mode_healthy
      in
      let merged =
        List.fold_left
          (fun a h ->
            P.
              {
                healthy = a.healthy && h.healthy;
                draining = a.draining || h.draining;
                h_mode = worst a.h_mode h.h_mode;
                h_uptime_s = Float.max a.h_uptime_s h.h_uptime_s;
                h_queue_depth = a.h_queue_depth + h.h_queue_depth;
                h_capacity = a.h_capacity + h.h_capacity;
                h_workers = a.h_workers + h.h_workers;
              })
          first rest
      in
      let h_mode =
        if all_reachable then merged.P.h_mode
        else worst merged.P.h_mode P.Mode_degraded
      in
      P.Ok_health
        { merged with P.healthy = merged.P.healthy && all_reachable; h_mode }

(* ------------------------------------------------------------------ *)
(* Data plane: ring placement with successor failover                  *)

let route_request t req =
  let key = P.request_key req in
  let rec try_shards ~first = function
    | [] ->
        Atomic.incr t.m_unavailable;
        P.Failed (E.Io_error "router: no shard available")
    | shard :: rest -> (
        match with_shard t shard (fun c -> Resilient.request c req) with
        | Ok resp ->
            Atomic.incr t.m_routed.(shard);
            if not first then Atomic.incr t.m_failovers;
            resp
        | Error _ -> try_shards ~first:false rest)
  in
  try_shards ~first:true (Ring.route t.ring key)

let handle_line t line =
  Atomic.incr t.m_requests;
  match P.parse_request_v ~line:1 line with
  | `Malformed e ->
      Atomic.incr t.m_local;
      P.Failed e
  | `Unknown_verb verb ->
      Atomic.incr t.m_local;
      P.Unsupported { verb; server_version = P.version }
  | `Request P.Hello ->
      Atomic.incr t.m_local;
      hello_rep
  | `Request P.Stats -> merged_stats t
  | `Request P.Health -> merged_health t
  | `Request req -> route_request t req

let start cfg =
  if cfg.shard_addresses = [] then Error (E.Io_error "router: no shards")
  else
    (* The endpoint also masks SIGPIPE, without which a SIGKILLed shard
       would turn the next backend write into the router's death. *)
    match Endpoint.listen cfg.address with
    | Error _ as e -> e
    | Ok endpoint ->
        let shards = Array.of_list cfg.shard_addresses in
        let names = Array.map shard_name shards in
        let ring = Ring.create ~vnodes names in
        let pools =
          Array.mapi
            (fun i addr ->
              let d = Resilient.default_config addr in
              {
                pm = Mutex.create ();
                rcfg =
                  {
                    d with
                    Resilient.attempts = max 1 cfg.attempts;
                    attempt_timeout = cfg.attempt_timeout;
                    (* Deterministic per-shard jitter: replayable
                       backoff, distinct across shards. *)
                    jitter_seed = i;
                  };
                free = [];
                all = [];
              })
            shards
        in
        let t =
          {
            cfg;
            ring;
            pools;
            endpoint;
            m_requests = Atomic.make 0;
            m_routed = Array.init (Array.length shards) (fun _ -> Atomic.make 0);
            m_failovers = Atomic.make 0;
            m_unavailable = Atomic.make 0;
            m_local = Atomic.make 0;
            m_fanouts = Atomic.make 0;
            m_hangups = Atomic.make 0;
          }
        in
        Endpoint.serve_lines endpoint
          ~handle:(fun line -> Some (P.response_to_string (handle_line t line)))
          ~hangup:(fun () -> Atomic.incr t.m_hangups);
        Ok t

(* Backend clients close only once no front connection can borrow
   one. *)
let stop t =
  Endpoint.stop t.endpoint;
  Array.iter
    (fun pool ->
      Mutex.lock pool.pm;
      List.iter Resilient.close pool.all;
      Mutex.unlock pool.pm)
    t.pools

let stats t =
  {
    r_requests = Atomic.get t.m_requests;
    r_routed = Array.map Atomic.get t.m_routed;
    r_failovers = Atomic.get t.m_failovers;
    r_unavailable = Atomic.get t.m_unavailable;
    r_local = Atomic.get t.m_local;
    r_fanouts = Atomic.get t.m_fanouts;
    r_hangups = Atomic.get t.m_hangups;
  }
