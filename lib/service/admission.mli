(** The daemon's admission policy as one state machine: single flight,
    the queue bound, the deadline-aware shed, the evaluation slots, the
    budget verdict, brownout and the drain.

    The core reads no clock, takes no lock and starts no thread: every
    time comes in as an argument ([~now], [~elapsed]), and {!Server}
    calls it under its one mutex.  A test can therefore drive it with a
    virtual clock, evaluation by evaluation.  The counters it moves are
    the {!Metrics} ones (accepted, served, rejected, timed_out, failed,
    shed, collapsed, batches, max_batch, brownouts, inflight and the
    latency histogram); once {!close}d and drained, they satisfy
    [accepted = served + timed_out + failed + shed] and [inflight = 0]. *)

(** One admitted request, and the duplicates that joined it. *)
type job = {
  key : string;  (** {!Protocol.request_key} of [request] *)
  request : Protocol.request;
  admitted : float;
  mutable joined : float list;
      (** admission times of the duplicates waiting on this job *)
  mutable reply : string option;
      (** the shell's slot for the rendered reply line, set once
          {!finish} has answered the job; the core never reads it *)
}

type t

(** [create ~jobs ~capacity ?timeout ~brownout metrics]: at most
    [jobs] evaluations at a time, at most [capacity] jobs waiting,
    [timeout] the per-request budget in seconds, and [brownout] enables
    the forced-fast hysteresis. *)
val create :
  jobs:int -> capacity:int -> ?timeout:float -> brownout:bool -> Metrics.t -> t

type admission =
  | Queued of job  (** a new key took a queue slot *)
  | Joined of job  (** a duplicate of a job not yet answered *)
  | Answered of Protocol.response
      (** [shed], [overloaded], or a refusal once draining *)

(** [admit t ~now key request].  A duplicate of a job admitted and not
    yet answered joins it: no slot, no shed check, since it adds no
    work.  Otherwise, with a [timeout], a request whose predicted wait
    (service-time EWMA x (queued + 1) / jobs) exceeds the budget is
    [shed]; after {!close} it is refused as draining; on a full queue
    it is [overloaded]. *)
val admit : t -> now:float -> string -> Protocol.request -> admission

(** [next t] takes the queue head while fewer than [jobs] evaluations
    are running, and counts it as running until its {!finish}. *)
val next : t -> job option

(** [finish t job ~now ~elapsed outcome] ends [job]'s evaluation, which
    took [elapsed] seconds and returned [Ok response] or raised
    ([Error failed]).  It gives the budget verdict: a returned response
    past the budget becomes [timeout]; a raised one stays failed even
    when it overran.  It unlinks the key from single flight, folds
    [elapsed] into the service-time EWMA (alpha 0.2), counts and times
    each admission the verdict answers (the job's and its joiners'),
    and takes one brownout step: three consecutive evaluations ending
    with the queue above 3/4 of capacity switch brownout on, three at
    or below 1/4 switch it off.  Returns the verdict and those
    admission times. *)
val finish :
  t ->
  job ->
  now:float ->
  elapsed:float ->
  (Protocol.response, Protocol.response) result ->
  Protocol.response * float list

(** [close t] starts the drain: later new keys are refused, and
    everything already admitted is still handed out by {!next}. *)
val close : t -> unit

(** [drained t]: closed, and no job waits (evaluations may still be
    running); an evaluator loop ends here. *)
val drained : t -> bool

(** Jobs waiting for an evaluation. *)
val depth : t -> int

(** Whether brownout forces every [solve] onto the certified fast
    pipeline. *)
val browned_out : t -> bool
