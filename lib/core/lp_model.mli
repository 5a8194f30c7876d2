(** The scheduling linear program of Section 2.3 of the paper,
    generalized to an arbitrary permutation pair (the paper notes the
    extension is immediate; FIFO is the special case [sigma2 = sigma1]).

    For a scenario enrolling workers [P_{σ1(1)}, ..., P_{σ1(q)}], the
    maximal number of load units processable within [T = 1] is

    {v
      maximize   rho = Σ α_i
      subject to, for every enrolled worker i:
        Σ_{j sent no later than i} α_j c_j            (wait for + receive data)
        + α_i w_i + x_i                               (compute, then idle)
        + Σ_{j returned no earlier than i} α_j d_j    (send results, wait)
        <= 1
      and (one-port)  Σ α_i c_i + Σ α_i d_i <= 1
      with α_i >= 0, x_i >= 0.
    v}

    Under the two-port model of the companion paper (master may send and
    receive simultaneously) the one-port constraint is dropped; both
    variants are provided, the two-port one serving as baseline and as
    the cross-check for Theorem 2 (whose bound [ρ̃] is the two-port bus
    optimum). *)

module Q = Numeric.Rational

type model = One_port | Two_port

type solved = private {
  scenario : Scenario.t;
  model : model;
  rho : Q.t;  (** optimal throughput (load processed within T = 1) *)
  alpha : Q.t array;  (** per-worker load, indexed like the platform *)
  idle : Q.t array;
      (** per-worker idle time, same indexing: the gap between the
          worker's compute finish and its return start in the canonical
          packed timeline (sends packed from time 0, returns packed
          against the horizon — {!Schedule.of_solved}'s layout).  This is
          a function of [alpha] alone, not the simplex point's own idle
          variable, whose split against the row slack depends on the
          pivot path. *)
  pivots : int;  (** simplex pivots, for diagnostics *)
  basis : int array;
      (** a basis of the answer's vertex: the simplex's terminal basis,
          or the normal form's chain — diagnostics, and the warm-start
          seed threaded through enumeration (see {!run}) *)
}

(** [problem model scenario] builds the LP. Variables are laid out as
    [α] in [sigma1] order followed by [x] in [sigma1] order. *)
val problem : model -> Scenario.t -> Simplex.Problem.t

(** How {!run} solves; see {!Solve.mode}. *)
type mode = [ `Exact | `Fast | `Cached ]

(** [run mode ?model ?warm ?max_float_pivots scenario] is the
    implementation behind {!Solve.solve}, the front door every caller
    uses (default model [One_port]).

    The answer is canonical.  On a FIFO or LIFO scenario whose optimal
    schedules have a normal form ({!Structured_cert.normal_form}: the
    lexicographic maximum of [alpha] in sigma1 order, where a chain of
    binding rows proves it), [alpha] is that normal form, whether or
    not the optimum is unique; elsewhere it is the exact simplex's
    vertex (Bland's rule), which is the only optimum whenever the fast
    pipeline certifies one.

    - [`Exact] runs the exact simplex, answers with the normal form
      where there is one (its [rho] must equal the simplex's) and with
      the simplex's vertex elsewhere, and verifies the answer with
      {!Simplex.Certify}.  [Error Unbounded]/[Error Infeasible] are
      impossible for a well-formed platform but reported faithfully
      when they occur.
    - [`Fast] is the certified fast pipeline, {e bit-identical} to
      [`Exact] by construction.  The normal form comes first, in O(p)
      and with no LP built; where there is none, a candidate basis —
      [warm] (the optimal basis of a neighbouring scenario) when given,
      else the float simplex's terminal basis — climbs a certification
      ladder:
      + the structured certificate ({!Structured_cert}), for FIFO and
        LIFO scenarios: O(p) exact operations along Theorem 1's chain
        of binding rows;
      + {!Simplex.Solver.certify_basis}, one restricted exact
        factorization, only for a basis the structured certificate
        cannot read (another permutation pair, another basis layout);
      + the full exact solve for everything else (rejected basis, float
        stall after [max_float_pivots], alternate optima).

      Either certificate accepts only when every non-basic reduced cost
      is strictly negative — that proves the optimum unique, hence
      equal to the exact solve's point — and has then checked every row
      in exact arithmetic, so a certified answer is not re-checked.
      Correctness therefore never depends on float tolerances; the
      floats only pick which exact computation runs.  The [pivots]
      field reflects the work of whichever path produced the answer.
      Counter movements are visible in {!pipeline_stats} ([float_wins]
      counts normal-form answers and float bases either certificate
      accepts, [warm_wins] accepted warm bases).
    - [`Cached] is [`Fast] memoized through a process-wide, size-bounded
      LRU cache keyed by {!scenario_key}.  A miss runs [`Fast] with the
      caller's [warm] hint and builds the LP at most once; concurrent
      misses on one key run one solve.  [warm] is a performance hint
      only.  Safe to call from several domains concurrently. *)
val run :
  mode ->
  ?model:model ->
  ?warm:int array ->
  ?max_float_pivots:int ->
  Scenario.t ->
  (solved, Errors.t) result

(** [scenario_key model scenario] is the canonical cache fingerprint:
    model tag, every worker's [name:c:w:d] (rationals in lowest terms),
    and the two permutations.  Scenarios are structurally equal iff
    their keys are equal. *)
val scenario_key : model -> Scenario.t -> string

(** [scenario_key_distance a b] is the distance between two canonical
    fingerprints: the number of differing worker [name:c:w:d] fields,
    when the two keys agree on the model, the worker count and both
    permutations — [None] otherwise (incomparable: the LPs differ in
    shape or row semantics, so one's basis cannot be installed in the
    other).  [Some 0] iff [a = b].  Purely syntactic; never inspects the
    scenarios themselves.  It picks a [near] for
    {!solve_from_neighbor}. *)
val scenario_key_distance : string -> string -> int option

(** [solve_from_neighbor model scenario near] tries [near] — a solved
    neighbouring scenario, typically differing from [scenario] in a few
    worker fields (a {!Delta} application) — as a shortcut: [near.basis]
    goes up [`Fast]'s certification ladder against [scenario]'s LP (for
    small nudges the optimal basis rarely moves; zero pivots).  A [Some]
    answer is therefore bit-identical to [`Exact]'s in
    [rho]/[alpha]/[idle]; [None] means "the neighbour's basis does not
    certify" — solve in full — never "no optimum".  No solve mode calls
    this: [`Cached ~warm:near.basis] runs the same certificate first.
    Counter movements land in {!resolve_stats}. *)
val solve_from_neighbor : model -> Scenario.t -> solved -> solved option

(** [cache_stats ()] is a snapshot of the solve cache's hit/miss/eviction
    counters. *)
val cache_stats : unit -> Parallel.Lru.stats

(** Process-wide counters of the certified fast pipeline; all increments
    are atomic, so the numbers are meaningful under [?jobs] parallelism. *)
type pipeline_stats = {
  float_wins : int;
      (** solves answered by the normal form, or certified from the
          float solver's lifted basis *)
  warm_wins : int;  (** solves certified from a caller-supplied warm basis *)
  exact_fallbacks : int;  (** solves that needed the full exact simplex *)
  pruned : int;  (** enumeration nodes skipped on {!Bounds} evidence *)
  float_pivots : int;  (** cumulative float-simplex pivots *)
  exact_pivots : int;  (** cumulative exact-simplex pivots (all paths) *)
}

(** [pipeline_stats ()] is a snapshot of the fast-pipeline counters.
    They only grow: a caller measures a span as the difference of two
    snapshots. *)
val pipeline_stats : unit -> pipeline_stats

(** [note_pruned n] records [n] enumeration nodes skipped via a cheap
    bound — called by [Brute]/[Search], surfaced in {!pipeline_stats}. *)
val note_pruned : int -> unit

val pp_pipeline_stats : Format.formatter -> pipeline_stats -> unit

(** Process-wide counters of {!solve_from_neighbor}; atomic like
    {!pipeline_stats}. *)
type resolve_stats = {
  probes : int;  (** {!solve_from_neighbor} calls *)
  repair_wins : int;  (** calls whose neighbour basis certified *)
  repair_pivots : int;
      (** always 0: certifying a basis pivots nothing (the field stays
          for readers of the older dual-simplex repair's counters) *)
}

(** [resolve_stats ()] is a snapshot of the re-solve counters, which
    only grow like {!pipeline_stats}. *)
val resolve_stats : unit -> resolve_stats

val pp_resolve_stats : Format.formatter -> resolve_stats -> unit

(** [reset_cache ?capacity ()] empties the solve cache (default capacity
    4096 entries; [capacity <= 0] disables caching). *)
val reset_cache : ?capacity:int -> unit -> unit

(** [estimate_rho ?model scenario] solves the same LP in floating-point
    arithmetic: ~10x faster, accurate to ~1e-9 relative on the library's
    scheduling programs, but carrying no exactness guarantee — use for
    large sweeps and dashboards, never to build a schedule.  Returns
    [None] when the float solver stalls on a degenerate instance. *)
val estimate_rho : ?model:model -> Scenario.t -> float option

(** [enrolled_workers s] lists indices with strictly positive load. *)
val enrolled_workers : solved -> int list

(** One row of {!constraint_report}. *)
type constraint_status = {
  label : string;  (** e.g. ["deadline(P2)"] or ["one-port"] *)
  slack : Q.t;  (** non-negative; zero means the constraint binds *)
  binding : bool;
}

(** [constraint_report s] evaluates every LP constraint at the solution:
    per-worker deadline slacks (with the idle variable folded in, i.e.
    the worker's true schedule gap) and the one-port port-capacity
    slack.  Lemma 1's structure shows up directly: when every worker is
    enrolled, at most one row is non-binding. *)
val constraint_report : solved -> constraint_status list

(** [time_for_load s ~load] is the optimal makespan for processing
    [load] units under this scenario: by linearity, [load / rho]. *)
val time_for_load : solved -> load:Q.t -> Q.t

val pp : Format.formatter -> solved -> unit
