(** Differential fuzzing of the solver stack.

    Five independent paths compute (pieces of) the same mathematical
    objects: {!Dls.Fifo} / {!Dls.Lifo} (Theorem 1 + sort), {!Dls.Brute}
    (exhaustive permutation search), {!Dls.Search} (branch-and-bound),
    and {!Dls.Closed_form} (Theorem 2 on bus platforms).  This module
    generates random platforms — deterministically, from an explicit
    seed — across the three return-ratio regimes and asserts every
    consistency relation the theory guarantees:

    - every emitted schedule passes the exact {!Validator}, and every LP
      solution passes the independent {!Certificate};
    - the heuristic FIFO orders (INC_C, INC_W) never beat the Theorem 1
      optimum, and exhaustive search never finds a better FIFO or LIFO
      order than the sorted one (uniform [z] — Theorem 1's hypothesis);
    - branch-and-bound agrees with brute force;
    - the two-port relaxation dominates the one-port optimum;
    - [z > 1]: the explicit mirror construction reproduces the direct
      solution and its flipped schedule validates on the original
      platform ({!Dls.Fifo.optimal_via_mirror});
    - [z = 1]: the sending order is irrelevant (enrollment order gives
      the same throughput as the sorted order);
    - bus platforms: Theorem 2's closed form equals the LP optimum, and
      the companion two-port closed form equals the two-port LP.

    All generated platforms keep the worker count small enough for brute
    force ([p!] LPs), so every relation is checked exhaustively. *)

module Q = Numeric.Rational

type regime = Small_z  (** [z < 1] *) | Unit_z  (** [z = 1] *) | Big_z  (** [z > 1] *)

val all_regimes : regime list
val regime_to_string : regime -> string

(** [regime_of_string s] parses ["z<1"], ["z=1"], ["z>1"]. *)
val regime_of_string : string -> regime option

(** [gen_platform rng regime] draws a random platform with a uniform
    return ratio in the regime: 2-4 workers, [c] and [w] rational in
    [[1/4, 8]]; every fourth draw is a bus (uniform links), so the
    closed-form path is exercised too. *)
val gen_platform : Random.State.t -> regime -> Dls.Platform.t

(** [check_platform ?fast platform] runs every consistency relation
    above; returns the list of discrepancies (empty = all solver paths
    agree and every schedule validates exactly).  With [~fast:true] it
    additionally solves {e every} FIFO and every LIFO order of the
    platform, under both port models, through both pipelines —
    [Dls.Solve.solve ~mode:`Exact] and the certified [~mode:`Fast],
    warm bases threaded as [Dls.Brute] does — and demands bit-identical
    [rho]/[alpha]/[idle] plus a passing {!Certificate} on each fast
    answer. *)
val check_platform : ?fast:bool -> Dls.Platform.t -> string list

(** One fuzzed case that failed, in any of the matrices below: its index
    in the run, its labelled serialized inputs for reproduction —
    ["platform"] ({!Dls.Platform_io.to_string}), plus ["workload"]
    ({!Dls.Workload.to_spec}), ["faults"] ({!Dls.Faults.to_string}) or
    ["delta"] ({!Dls.Delta.to_spec}) — and the discrepancies. *)
type failure = {
  index : int;
  inputs : (string * string) list;
  messages : string list;
}

(** [run_matrix ?jobs ?count ?seed ?fast regime] fuzzes [count] (default
    200) random platforms of the regime, fanning the checks out over a
    {!Parallel.Pool} of [jobs] domains (default: core count).  The
    platform drawn for index [i] depends only on [(seed, regime, i)], so
    results are independent of [jobs] and reproducible.  [~fast:true]
    adds the exact-vs-fast bit-identity check of {!check_platform} to
    every platform.  Returns the failures, in index order (empty = the
    matrix passes). *)
val run_matrix :
  ?jobs:int -> ?count:int -> ?seed:int -> ?fast:bool -> regime -> failure list

(** {1 Multi-load differential matrix}

    The multi-load analogue of {!run_matrix}: random platforms paired
    with random two-load workloads (sizes, release dates, optional
    per-load return ratios), cross-checking the steady-state LP against
    the batch LP on a long horizon:

    - the steady-state solution passes {!Validator.validate_steady} and
      its period never exceeds the naive back-to-back baseline;
    - capacity squeeze on [h] zero-release copies of the mix:
      [h * T <= makespan(batch, best depth <= 2) <= (h + 2) * T];
    - the released batch passes {!Validator.validate_batch} and never
      loses to fixed-order back-to-back (a feasible depth-0 point);
    - a one-load batch at depth 0 reproduces the paper's LP(2) makespan
      bit-exactly. *)

(** [gen_workload rng regime] draws a random two-load workload: sizes in
    [[1/4, 8]], releases in [{0, 1/2, 1}], and each load keeping the
    platform's return ratio or overriding it with a fresh draw from the
    regime.  Also used by {!Service.Loadgen} for [solve-multi]
    traffic. *)
val gen_workload : Random.State.t -> regime -> Dls.Workload.t

(** [run_multi_matrix ?jobs ?count ?seed ?h regime] fuzzes [count]
    (default 60) multi-load cases over a {!Parallel.Pool}; the case at
    index [i] depends only on [(seed, regime, i)].  Failures come back
    in index order (empty = the matrix passes). *)
val run_multi_matrix :
  ?jobs:int -> ?count:int -> ?seed:int -> ?h:int -> regime -> failure list

(** {1 Fault-injection matrix}

    The robustness analogue of {!run_matrix}: random platforms paired
    with random seeded fault plans ({!Dls.Faults.gen}), each fed to the
    online re-planner ({!Dls.Replan.respond}), asserting that

    - the re-planner's no-recovery baseline equals an independent exact
      replay of the original schedule under the faults;
    - the chosen decision never completes less load by the deadline than
      that baseline (re-planning never hurts);
    - when it recovers, the spliced schedule passes
      {!Validator.validate_recovery} — exact one-port validity on the
      degraded platform, deadline respected, accounting consistent;
    - an empty fault plan yields [Keep_original] with full completion;
    - [respond] is deterministic on identical inputs. *)

(** [check_faulted platform plan ~load] runs every assertion above for
    one case; returns the discrepancies (empty = pass). *)
val check_faulted : Dls.Platform.t -> Dls.Faults.plan -> load:Q.t -> string list

(** [fault_case ~seed ~severity regime i] draws case [i] of the matrix:
    a platform of the regime, a fault plan whose onsets and factors
    scale with [severity] in [[0, 1]], and a campaign load sized to a
    deadline of 1/2 to 2 time units.  Depends only on the arguments —
    never on scheduling or [jobs]. *)
val fault_case :
  seed:int -> severity:float -> regime -> int -> Dls.Platform.t * Dls.Faults.plan * Q.t

(** [run_fault_matrix ?jobs ?count ?seed ?severity regime] fuzzes
    [count] (default 200) fault cases over a {!Parallel.Pool}; failures
    come back in index order (empty = the matrix passes). *)
val run_fault_matrix :
  ?jobs:int ->
  ?count:int ->
  ?seed:int ->
  ?severity:float ->
  regime ->
  failure list

(** {1 Re-solve differential matrix}

    The incremental-resolve analogue of {!run_matrix}: a random base
    platform solved cold ({!Dls.Fifo.optimal}), then a random
    {!Dls.Delta} applied to its scenario — mostly small [c]/[w] nudges
    and [z] sweeps (near-duplicate traffic), occasionally a worker
    add/drop to exercise the rejection — and the perturbed scenario
    pushed through {!Dls.Lp_model.solve_from_neighbor} against the base:

    - when the base's basis {e certifies}, the answer's
      [rho]/[alpha]/[idle] must be bit-identical to a cold [`Exact]
      solve of the perturbed scenario and pass the independent
      {!Certificate};
    - when it declines ([None]), the fallback ([`Fast]) must still agree
      bit-exactly with [`Exact];
    - a shape-changing delta must never be accepted (the base's basis
      has the wrong dimension). *)

(** [run_resolve_matrix ?jobs ?count ?seed regime] fuzzes [count]
    (default 100) delta cases over a {!Parallel.Pool}; the case at index
    [i] depends only on [(seed, regime, i)].  Failures come back in
    index order (empty = the matrix passes). *)
val run_resolve_matrix :
  ?jobs:int -> ?count:int -> ?seed:int -> regime -> failure list
