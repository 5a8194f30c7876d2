module P = Protocol

type job = {
  key : string;
  request : P.request;
  admitted : float;
  mutable joined : float list;
  mutable reply : string option;
}

type t = {
  jobs : int;
  capacity : int;
  timeout : float option;
  brownout : bool;
  metrics : Metrics.t;
  queue : job Queue.t;
  (* Single flight: each key admitted and not yet answered, with its
     job, from [admit] until its [finish]. *)
  in_flight : (string, job) Hashtbl.t;
  mutable running : int;
  mutable closed : bool;
  mutable ewma : float;  (* service time, seconds; 0 until observed *)
  (* Brownout hysteresis: consecutive evaluations that ended with the
     queue above 3/4 (resp. at or below 1/4) of capacity. *)
  mutable high_streak : int;
  mutable low_streak : int;
  mutable browned_out : bool;
}

type admission = Queued of job | Joined of job | Answered of P.response

let create ~jobs ~capacity ?timeout ~brownout metrics =
  {
    jobs;
    capacity;
    timeout;
    brownout;
    metrics;
    queue = Queue.create ();
    in_flight = Hashtbl.create 64;
    running = 0;
    closed = false;
    ewma = 0.;
    high_streak = 0;
    low_streak = 0;
    browned_out = false;
  }

let depth t = Queue.length t.queue
let drained t = t.closed && Queue.is_empty t.queue
let browned_out t = t.browned_out
let close t = t.closed <- true
let count t c = Metrics.incr t.metrics c

(* Deadline-aware admission: when the budget cannot be met at the
   current depth, shedding now is kinder than queueing work that is
   doomed to [timeout]: the client learns at once, and the slot stays
   free for a request that can still make it. *)
let doomed t =
  match t.timeout with
  | Some budget when t.ewma > 0. ->
    let wait = t.ewma *. float_of_int (depth t + 1) /. float_of_int t.jobs in
    if wait > budget then Some (P.Shed { wait; budget }) else None
  | _ -> None

let admit t ~now key request =
  match Hashtbl.find_opt t.in_flight key with
  | Some job ->
    job.joined <- now :: job.joined;
    count t Accepted;
    count t Collapsed;
    count t Inflight;
    Joined job
  | None -> (
    match doomed t with
    | Some shed ->
      count t Accepted;
      count t Shed;
      Answered shed
    | None ->
      if t.closed then begin
        count t Rejected;
        Answered (P.Failed (Dls.Errors.Io_error "server is draining"))
      end
      else if depth t >= t.capacity then begin
        count t Rejected;
        Answered (P.Overloaded { depth = depth t; capacity = t.capacity })
      end
      else begin
        let job = { key; request; admitted = now; joined = []; reply = None } in
        Queue.push job t.queue;
        Hashtbl.replace t.in_flight key job;
        count t Accepted;
        count t Inflight;
        Queued job
      end)

let next t =
  if t.running >= t.jobs || Queue.is_empty t.queue then None
  else begin
    t.running <- t.running + 1;
    Some (Queue.pop t.queue)
  end

let brownout_step t =
  let depth = depth t in
  if 4 * depth >= 3 * t.capacity then begin
    t.low_streak <- 0;
    t.high_streak <- t.high_streak + 1;
    if t.high_streak >= 3 && not t.browned_out then begin
      t.browned_out <- true;
      count t Brownouts
    end
  end
  else if 4 * depth <= t.capacity then begin
    t.high_streak <- 0;
    t.low_streak <- t.low_streak + 1;
    if t.low_streak >= 3 then t.browned_out <- false
  end
  else begin
    t.high_streak <- 0;
    t.low_streak <- 0
  end

let finish t job ~now ~elapsed outcome =
  let resp =
    match (outcome, t.timeout) with
    | Ok _, Some budget when elapsed > budget -> P.Timed_out { budget }
    | (Ok resp | Error resp), _ -> resp
  in
  (* EWMA with alpha = 0.2: heavy enough on history to ride out one odd
     request, light enough to track a regime change within ~10
     requests.  The first observation seeds it. *)
  t.ewma <- (if t.ewma <= 0. then elapsed else (0.8 *. t.ewma) +. (0.2 *. elapsed));
  t.running <- t.running - 1;
  Hashtbl.remove t.in_flight job.key;
  let answered = job.admitted :: job.joined in
  let outcome : Metrics.counter =
    match resp with
    | _ when P.is_ok resp -> Served
    | P.Timed_out _ -> Timed_out
    | _ -> Failed
  in
  List.iter
    (fun admitted ->
      count t outcome;
      Metrics.observe_latency t.metrics (now -. admitted);
      Metrics.decr t.metrics Inflight)
    answered;
  Metrics.note_evaluation t.metrics ~answered:(List.length answered);
  if t.brownout then brownout_step t;
  (resp, answered)
