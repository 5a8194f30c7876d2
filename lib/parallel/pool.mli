(** Domain pool: deterministic data-parallel maps over OCaml 5 domains,
    scheduled by lock-free work stealing.

    A pool owns [jobs - 1] worker domains; the caller of {!map}
    participates as one more executor.  Every participant owns a
    Chase–Lev deque ({!Deque}): a {!map} call seeds its deque with the
    whole index range, and ranges wider than the chunk are split lazily
    in half — the executor keeps the lower half and pushes the upper
    half onto its {e own} deque, where idle domains steal the oldest
    (widest) ranges.  There is no lock on the claim path, so claims from
    different domains never contend once work has spread.

    {2 Determinism}

    Results are written into per-index slots, so the output of
    [map pool f arr] is {e exactly} [Array.map f arr] — same values,
    same order — independently of [jobs], chunk size, steal order, or
    how many other [map] calls run at the same time.  Scheduling decides
    only {e who} computes an item, never what the output contains.
    Parallelism only changes wall-clock time.

    Exceptions raised by [f] are caught per item; after the batch
    completes, the exception of the {e smallest} failing index is
    re-raised in the caller (again deterministic).  A failed batch
    leaves the pool fully reusable — worker domains survive and the next
    {!map} behaves normally.

    {2 Concurrency contract}

    Unlike the mutex-based pool it replaced, a pool is safe for {e
    concurrent} and {e reentrant} use:

    - Any number of threads or domains may call {!map} on the same pool
      at the same time; their batches interleave over the shared workers
      and each call returns its own deterministic result.
    - [f] may itself call {!map} on the same pool (reentrancy).  The
      inner call executes work-first — the calling domain processes its
      own range and keeps helping until the inner batch is complete — so
      nesting cannot deadlock.
    - Under pathological nesting depth (more simultaneous [map] calls
      than internal mapper slots, ≥ [max 4 (2*jobs)]) a call silently
      degrades to inline sequential execution, with identical results.

    {!shutdown} must not race with in-flight {!map} calls: quiesce
    callers first (the service layer does this by joining dispatchers
    before shutting the pool down). *)

type t

(** [default_jobs ()] is [Domain.recommended_domain_count ()]: the
    parallelism the hardware is expected to sustain. *)
val default_jobs : unit -> int

(** [create ~jobs ()] spawns [max 0 (jobs - 1)] worker domains
    (default [default_jobs ()]).  [jobs <= 1] builds a pool that runs
    everything in the calling domain. *)
val create : ?jobs:int -> unit -> t

(** [jobs pool] is the parallelism the pool was created with. *)
val jobs : t -> int

(** [shutdown pool] terminates the worker domains and joins them.
    Idempotent.  Any later {!map} on the pool runs sequentially. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] runs [f] with a fresh pool and shuts it down
    afterwards (also on exception). *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** Raised in the caller when a task overran its [?timeout] budget.
    Cooperative: a domain cannot be interrupted mid-task, so the budget
    is checked when the task {e completes} — the overrunning item's
    result is discarded and this exception takes its failure slot
    (smallest failing index wins, as for any task exception).  A task
    that itself raised reports its own exception, not the overrun. *)
exception Task_timeout of { index : int; elapsed : float; budget : float }

(** [timed ?timeout ~index f x] is [f x] under the pool's cooperative
    budget check: when [f] returns after more than [timeout] seconds of
    {e monotonic} clock time ({!Clock}, immune to wall-clock steps), the
    result is discarded and {!Task_timeout} is raised instead (an
    exception raised by [f] itself wins over the overrun).  This is the
    exact primitive {!map} applies per item, exposed so other
    executors — e.g. a request-serving worker loop — can enforce
    per-task deadlines with identical semantics.  [timeout = None] is
    just [f x]. *)
val timed : ?timeout:float -> index:int -> ('a -> 'b) -> 'a -> 'b

(** [map ?chunk ?timeout pool f arr] is [Array.map f arr], computed by
    all pool members.  [chunk] requests the widest index range executed
    without further splitting (default: a heuristic giving each worker
    a few leaves); the pool auto-partitions — a chunk finer than
    [n / (8 * jobs)] is coarsened to that floor, since beyond ~8 leaves
    per participant extra splits only add claim traffic.  Granularity
    affects scheduling only, never the result.  [timeout] is a per-task
    wall-clock budget in seconds (see {!Task_timeout}).  Safe to call
    concurrently from several threads and reentrantly from within [f] —
    see the concurrency contract above. *)
val map : ?chunk:int -> ?timeout:float -> t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list ?chunk ?timeout pool f l] is [List.map f l] via {!map}. *)
val map_list : ?chunk:int -> ?timeout:float -> t -> ('a -> 'b) -> 'a list -> 'b list

(** [run ?jobs ?chunk ?timeout f arr] is a one-shot {!map} on a temporary
    pool: [with_pool ?jobs (fun p -> map ?chunk p f arr)].  [jobs <= 1]
    is a plain [Array.map] with no domain spawned. *)
val run : ?jobs:int -> ?chunk:int -> ?timeout:float -> ('a -> 'b) -> 'a array -> 'b array

(** [run_local ?jobs ?chunk ?timeout ~init f arr] is {!run} where [f] additionally
    receives a mutable scratch state, created by [init] once per
    participating domain ([jobs <= 1]: a single state for the whole
    array).  Intended for performance hints that survive between items
    claimed by the same domain — e.g. the previous item's optimal simplex
    basis as a warm start.  The determinism guarantee of {!run} only
    extends to [run_local] if [f]'s {e result} does not depend on the
    state (the state may freely change how fast the result is
    computed). *)
val run_local :
  ?jobs:int ->
  ?chunk:int ->
  ?timeout:float ->
  init:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  'b array
