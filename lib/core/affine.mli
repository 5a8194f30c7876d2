(** Extension: the affine cost model.

    The paper uses the linear model (communication of [X] units costs
    [X.c]); its related-work section discusses the {e affine} variant
    where every message additionally pays a start-up latency —
    sending [X] units to [Pi] costs [L_i + X.c_i] and the return
    message costs [M_i + X.d_i].  Latencies make resource selection
    genuinely combinatorial: a worker can no longer be "enrolled at
    zero load" for free, and the related DLS problem with affine costs
    is NP-hard (Legrand, Yang, Casanova, 2005).  This module provides
    the scenario LP for fixed enrollment and message orders, plus an
    exhaustive search over subsets and orders for small platforms.

    Setting every latency to zero recovers the paper's linear model
    exactly (property-tested). *)

module Q = Numeric.Rational

type worker = private {
  base : Platform.worker;
  send_latency : Q.t;  (** start-up cost of the initial message *)
  return_latency : Q.t;  (** start-up cost of the return message *)
}

type t = private { workers : worker array }

(** [worker ?send_latency ?return_latency base] attaches latencies
    (default zero) to a linear-model worker.
    @raise Invalid_argument on negative latencies. *)
val worker : ?send_latency:Q.t -> ?return_latency:Q.t -> Platform.worker -> worker

val make : worker list -> t

(** [of_platform ?send_latency ?return_latency p] applies uniform
    latencies to every worker of a linear platform. *)
val of_platform : ?send_latency:Q.t -> ?return_latency:Q.t -> Platform.t -> t

val size : t -> int
val get : t -> int -> worker

type solved = private {
  affine : t;
  sigma1 : int array;
  sigma2 : int array;
  model : Lp_model.model;
  rho : Q.t;  (** optimal load processed within [T = 1] *)
  alpha : Q.t array;  (** per-worker loads, platform indexing *)
}

type outcome =
  | Solved of solved
  | Too_slow  (** the latencies alone exceed the deadline: no feasible
                  schedule enrolls this exact set of workers *)

(** [solve ?model t ~sigma1 ~sigma2] solves the affine scenario LP: all
    listed workers are enrolled (and pay their latencies), loads are
    optimized.  Orders must range over the same subset of workers. *)
val solve : ?model:Lp_model.model -> t -> sigma1:int array -> sigma2:int array -> outcome

(** [best_fifo ?model t] searches all non-empty subsets and all FIFO
    orders — exponential, for small platforms only.  Returns [Too_slow]
    when even single workers cannot meet the deadline. *)
val best_fifo : ?model:Lp_model.model -> t -> outcome

(** [best_general ?model t] additionally searches all return orders. *)
val best_general : ?model:Lp_model.model -> t -> outcome
