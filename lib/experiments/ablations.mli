(** Ablation studies beyond the paper's published figures, probing the
    design choices DESIGN.md calls out:

    - how much throughput the one-port constraint costs versus the
      two-port model of the companion paper;
    - how close the fixed FIFO/LIFO disciplines come to the best
      permutation pair found by exhaustive search (the general problem
      whose complexity the paper leaves open);
    - how much the Theorem 1 ordering matters versus plausible
      alternatives (INC_W, DEC_C, platform order). *)

(** [one_port_cost ()] compares one-port and two-port optimal FIFO
    throughputs across matrix sizes on random heterogeneous platforms. *)
val one_port_cost : ?quick:bool -> unit -> Report.t

(** [permutation_gap ()] measures FIFO and LIFO against the brute-force
    best [(sigma1, sigma2)] pair on small random platforms. *)
val permutation_gap : ?quick:bool -> ?jobs:int -> unit -> Report.t

(** [ordering ()] compares FIFO orderings (INC_C, INC_W, DEC_C, platform
    order) on random heterogeneous platforms. *)
val ordering : ?quick:bool -> unit -> Report.t

(** [theorem2_check ()] tabulates the Theorem 2 closed form against the
    LP optimum on random bus platforms (they must agree exactly). *)
val theorem2_check : unit -> Report.t

(** [lifo_regime ()] sweeps the computation/communication balance and
    reports the LIFO-vs-INC_C makespan ratio: LIFO's advantage (the
    paper's Figs 10-12 observation) emerges in compute-dominant
    regimes.  Documents the calibration discussion in EXPERIMENTS.md. *)
val lifo_regime : ?quick:bool -> unit -> Report.t

(** [affine_latency ()] sweeps a per-message start-up latency on a small
    platform and reports the optimal throughput and the number of
    enrolled workers: latencies shrink the optimal enrollment — the
    affine-model effect the paper's related work discusses. *)
val affine_latency : ?quick:bool -> unit -> Report.t

(** [multiround ()] sweeps the number of rounds with and without
    per-message latencies: under the linear model more rounds always
    help (so the model degenerates), under the affine model a finite
    optimum emerges — the Section 6 argument, measured. *)
val multiround : ?quick:bool -> unit -> Report.t

(** [protocol ()] replays the same LP-dimensioned plans under the two
    master policies ([Sends_first], the paper's structure, vs
    [Eager_returns]) and reports the makespan ratio: how much does the
    "all sends before all returns" modelling assumption cost or gain in
    execution? *)
val protocol : ?quick:bool -> unit -> Report.t

(** [scaling ()] measures how the exact and floating-point simplex
    solvers scale with the worker count on the FIFO scheduling LP, and
    verifies they agree on the throughput.  The exact solver is the
    source of truth; the float path exists exactly for the large-[p]
    regime this table maps out.  The table holds the relative error and
    the exact pivots; the wall-clock times of both solvers are its
    [timings]. *)
val scaling : ?quick:bool -> unit -> Report.t

(** [sensitivity ()] executes INC_C- and LIFO-dimensioned campaigns
    under growing amounts of per-event jitter and reports the real/lp
    degradation of each: the paper explains LIFO's bad showing in
    Fig. 13a by its sensitivity "to small performance variations"; this
    experiment measures that hypothesis on the simulated cluster. *)
val sensitivity : ?quick:bool -> unit -> Report.t

(** [robustness ()] draws seeded fault cases ({!Check.Fuzz.fault_case})
    across four severities and the three return-ratio regimes, and
    reports the mean share of the load returned by the fault-free
    deadline without recovery and under {!Dls.Replan.respond}'s
    decision, plus how many cases spliced a recovery schedule.  18
    cases per cell, 6 when [quick], all from seed 2026. *)
val robustness : ?quick:bool -> unit -> Report.t

(** [multiload ()] compares, for a fixed two-load mix (sizes 5 and 3) on
    deterministic 3- and 4-worker platforms (3 only when [quick]) and
    every return regime, the multi-load steady-state throughput with
    running the mix back to back and with the batch LP over H copies
    (H = 3, or 2 when [quick]): steady state overlaps one load's returns
    with the next load's sends, which back-to-back cannot. *)
val multiload : ?quick:bool -> unit -> Report.t
