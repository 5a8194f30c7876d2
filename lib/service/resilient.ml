(* Retrying client with reconnect and circuit breaker.  See
   resilient.mli for the retry/no-retry policy table. *)

module E = Dls.Errors
module P = Protocol
module Clock = Parallel.Clock

type config = {
  address : Server.address;
  attempts : int;
  attempt_timeout : float option;
  backoff_base : float;
  backoff_max : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  jitter_seed : int;
}

let default_config address =
  {
    address;
    attempts = 4;
    attempt_timeout = Some 0.25;
    backoff_base = 0.01;
    backoff_max = 0.2;
    breaker_threshold = 5;
    breaker_cooldown = 1.0;
    jitter_seed = 0;
  }

type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

type stats = {
  attempts : int;
  retries : int;
  reconnects : int;
  corrupt : int;
  breaker_opens : int;
  fast_fails : int;
}

type t = {
  cfg : config;
  mutable conn : Client.t option;
  mutable state : breaker_state;
  mutable open_until : float;  (* monotonic; meaningful when Breaker_open *)
  mutable consecutive_failures : int;
  mutable s_attempts : int;
  mutable s_retries : int;
  mutable s_reconnects : int;
  mutable s_corrupt : int;
  mutable s_breaker_opens : int;
  mutable s_fast_fails : int;
}

let create cfg =
  {
    cfg;
    conn = None;
    state = Breaker_closed;
    open_until = 0.;
    consecutive_failures = 0;
    s_attempts = 0;
    s_retries = 0;
    s_reconnects = 0;
    s_corrupt = 0;
    s_breaker_opens = 0;
    s_fast_fails = 0;
  }

let stats t =
  {
    attempts = t.s_attempts;
    retries = t.s_retries;
    reconnects = t.s_reconnects;
    corrupt = t.s_corrupt;
    breaker_opens = t.s_breaker_opens;
    fast_fails = t.s_fast_fails;
  }

let breaker t = t.state

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
    Client.close c;
    t.conn <- None

let close = drop_conn

(* Canonical responses are printable ASCII; any control byte in a reply
   line is transit damage, whatever the line happens to parse as. *)
let looks_corrupt line =
  let n = String.length line in
  let rec go i = i < n && (Char.code line.[i] < 0x20 || go (i + 1)) in
  go 0

let trip_open t =
  t.state <- Breaker_open;
  t.open_until <- Clock.now () +. t.cfg.breaker_cooldown;
  t.s_breaker_opens <- t.s_breaker_opens + 1

(* A transport/corruption failure: drop the connection, advance the
   breaker.  A failed half-open probe re-opens immediately; in closed
   state, [breaker_threshold] consecutive failures trip it. *)
let note_failure t =
  drop_conn t;
  match t.state with
  | Breaker_half_open -> trip_open t
  | Breaker_closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= t.cfg.breaker_threshold then trip_open t
  | Breaker_open -> ()

let note_success t =
  t.consecutive_failures <- 0;
  if t.state <> Breaker_closed then t.state <- Breaker_closed

(* Deterministic jitter in [0.5, 1.5): same (seed, key, attempt) =>
   same factor, so a seeded chaos run replays byte-for-byte. *)
let backoff_s t ~key ~attempt =
  let raw = t.cfg.backoff_base *. (2. ** float_of_int attempt) in
  let capped = Float.min t.cfg.backoff_max raw in
  let h = Hashtbl.hash (t.cfg.jitter_seed, key, attempt, "backoff") in
  let jitter = 0.5 +. (float_of_int (h land 0xFFFF) /. 65536.) in
  capped *. jitter

let connect t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
    match Client.connect t.cfg.address with
    | Ok c ->
      if t.s_attempts > 0 then begin
        t.s_reconnects <- t.s_reconnects + 1
      end;
      t.conn <- Some c;
      Ok c
    | Error e -> Error e)

(* One attempt: connect if needed, run the cycle, classify. *)
type attempt_outcome =
  | Final of (P.response, E.t) result
  | Retry_transport of string
  | Retry_corrupt
  | Retry_overloaded

let attempt t line =
  match connect t with
  | Error e -> Retry_transport (E.to_string e)
  | Ok c -> (
    t.s_attempts <- t.s_attempts + 1;
    match Client.request_line ?deadline_s:t.cfg.attempt_timeout c line with
    | Error te -> Retry_transport (Client.transport_error_to_string te)
    | Ok reply ->
      if looks_corrupt reply then Retry_corrupt
      else (
        match P.parse_response reply with
        | Error _ -> Retry_corrupt
        | Ok (P.Failed (E.Parse_error _)) ->
          (* We rendered the line canonically, so the server cannot
             have received what we sent: the request was garbled in
             transit.  Retrying sends the intact line again. *)
          Retry_corrupt
        | Ok (P.Overloaded _) -> Retry_overloaded
        | Ok resp ->
          (* Timed_out and Shed are authoritative (the server spent or
             refused the budget); everything else is the answer. *)
          Final (Ok resp)))

let request t req =
  let line = P.request_to_string req in
  let rec go attempt_idx last_err =
    if attempt_idx >= t.cfg.attempts then
      Error
        (E.Io_error
           (Printf.sprintf "resilient: %d attempts failed; last: %s"
              t.cfg.attempts last_err))
    else begin
      (* Breaker gate.  An open breaker past its cooldown lets exactly
         this call through as the half-open probe. *)
      match t.state with
      | Breaker_open when Clock.now () < t.open_until ->
        t.s_fast_fails <- t.s_fast_fails + 1;
        Error (E.Io_error "resilient: circuit breaker is open")
      | state ->
        if state = Breaker_open then t.state <- Breaker_half_open;
        if attempt_idx > 0 then begin
          t.s_retries <- t.s_retries + 1;
          Unix.sleepf (backoff_s t ~key:line ~attempt:(attempt_idx - 1))
        end;
        (match attempt t line with
        | Final (Ok resp) ->
          note_success t;
          Ok resp
        | Final (Error _ as e) ->
          note_success t;
          e
        | Retry_transport msg ->
          note_failure t;
          go (attempt_idx + 1) msg
        | Retry_corrupt ->
          t.s_corrupt <- t.s_corrupt + 1;
          note_failure t;
          go (attempt_idx + 1) "corrupted reply"
        | Retry_overloaded ->
          (* The server answered: the path works.  No breaker penalty,
             but back off before adding to its queue again. *)
          note_success t;
          go (attempt_idx + 1) "server overloaded")
    end
  in
  go 0 "no attempt made"
