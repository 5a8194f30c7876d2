(** Multi-load scheduling: steady-state throughput and finite batches.

    Two solution modes for a {!Workload} on a star platform, both exact
    and both certified:

    {2 Steady state}

    Repeat the load mix forever and ask for the shortest period [T] in
    which one whole mix can be processed.  With [a(k,i)] the share of
    load [k] given to worker [i] per period, the LP is

    {v
      minimize   T
      subject to Σ_i a(k,i) = size_k                   for every load k
                 Σ_{k,i} a(k,i) (c_i + d(k,i)) <= T    (one-port)
                 Σ_k a(k,i) w_i <= T                   for every worker i
                 a(k,i) >= 0
    v}

    where [d(k,i)] is load [k]'s return cost on worker [i]
    ({!Workload.return_cost}).  Both resource rows are genuine lower
    bounds on any schedule processing the mix [H] times — the port is
    busy [Σ a (c+d)] and worker [i] computes [Σ a w] per mix — so
    [H*T] bounds every batch makespan from below; conversely the
    periodic construction (send copy [m] in window [m], compute it in
    window [m+1], return it in window [m+2]) turns any feasible [(a, T)]
    into a schedule of [H] copies finishing by [(H+2)*T].  The batch LP
    below, run at interleave depth 2, contains that construction, which
    is the two-sided squeeze the differential fuzzer checks.

    {2 Finite batch}

    A multi-round extension of the paper's LP(2) in the style of
    {!Multiround}, with explicit event times: loads are taken in a fixed
    sequence, each split into chunks over the workers in a fixed order,
    and the master's port performs the send-blocks and return-blocks in
    a fixed interleaved order ([depth] send-blocks run ahead of the
    return chain).  Release dates lower-bound the sends; each worker
    computes its chunks in sequence order; the makespan is minimized. *)

module Q = Numeric.Rational

type solved = private {
  platform : Platform.t;
  workload : Workload.t;
  period : Q.t;  (** optimal period [T], certified rational *)
  alloc : Q.t array array;
      (** [alloc.(k).(i)]: share of load [k] on worker [i] per period *)
  port_time : Q.t;  (** port busy time per period, [<= period] *)
  work_time : Q.t array;  (** per-worker compute time per period *)
  throughput : Q.t;  (** load units per time unit: [total_size / period] *)
  pivots : int;
}

(** [solve platform workload] computes the optimal steady-state period.
    The solution is validated with {!Simplex.Certify} before being
    returned. *)
val solve : Platform.t -> Workload.t -> (solved, Errors.t) result

(** [solve_exn] is {!solve}. @raise Errors.Error accordingly. *)
val solve_exn : Platform.t -> Workload.t -> solved

(** [problem platform workload] is the steady-state LP that {!solve}
    solves: the allocations [a(k,i)] at [k * p + i], then the period. *)
val problem : Platform.t -> Workload.t -> Simplex.Problem.t

type batch = private {
  b_platform : Platform.t;
  b_workload : Workload.t;
  order : int array;  (** worker order used for every load's chunks *)
  sequence : int array;  (** load indices in scheduling (release) order *)
  depth : int;  (** send-blocks allowed to run ahead of the return chain *)
  makespan : Q.t;  (** certified batch completion time *)
  chunks : Q.t array array;  (** [chunks.(k).(j)]: load [k], order slot [j] *)
  send_starts : Q.t array array;
  compute_starts : Q.t array array;
  return_starts : Q.t array array;
  b_pivots : int;
}

(** [solve_batch ?depth ?order platform workload] schedules the batch at
    a fixed interleave depth (default 1) and worker order (default
    {!Fifo.order}).  Loads are sequenced by release date (ties by
    position).  @raise nothing; degenerate LPs surface as [Error]. *)
val solve_batch :
  ?depth:int ->
  ?order:int array ->
  Platform.t ->
  Workload.t ->
  (batch, Errors.t) result

(** [batch_problem ?depth ?order platform workload] is the LP that
    {!solve_batch} solves, with [4 * loads * workers + 1] variables.
    @raise Invalid_argument on a negative [depth]. *)
val batch_problem :
  ?depth:int -> ?order:int array -> Platform.t -> Workload.t -> Simplex.Problem.t

(** [solve_batch_best ?max_depth ?order platform workload] tries every
    depth in [0..max_depth] (default: [min 2 (loads-1)]) and keeps the
    smallest makespan — deeper interleaving pipelines returns against
    the next load's sends but can lose when releases are sparse, so
    neither extreme dominates. *)
val solve_batch_best :
  ?max_depth:int ->
  ?order:int array ->
  Platform.t ->
  Workload.t ->
  (batch, Errors.t) result

(** [port_sequence b] lists the master-port operations in their exact
    chain order: [(kind, load, slot)] where [load] is a workload index
    and [slot] indexes [b.order].  Zero-size chunks are included (their
    operations have zero duration); drop them for replay. *)
val port_sequence : batch -> ([ `Send | `Return ] * int * int) list

(** [batch_schedules b] realizes each load of the batch as an explicit
    per-load {!Schedule.t} on its induced platform (shared horizon: the
    batch makespan), for replay and validation. *)
val batch_schedules : batch -> (int * Schedule.t) array

(** [naive_makespan platform workload] is the back-to-back baseline:
    loads in release order, each solved alone with the single-load FIFO
    LP on its induced platform (warm-starting each solve with the
    previous basis), no overlap between consecutive loads.  The
    [multiload] experiment compares steady-state throughput against
    this. *)
val naive_makespan : Platform.t -> Workload.t -> (Q.t, Errors.t) result

val pp : Format.formatter -> solved -> unit
val pp_batch : Format.formatter -> batch -> unit
