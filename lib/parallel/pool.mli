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
    before shutting the pool down).

    The pool has no per-task budget: {!timed} is a separate wrapper,
    used by the request-serving worker loop. *)

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

(** Raised by {!timed} when a task overran its budget. *)
exception Task_timeout of { elapsed : float; budget : float }

(** [timed ?timeout f x] is [f x] under a cooperative budget check: a
    task cannot be interrupted, so when [f] returns after more than
    [timeout] seconds of {e monotonic} clock time ({!Clock}, immune to
    wall-clock steps), the result is discarded and {!Task_timeout} is
    raised instead.  An exception raised by [f] itself wins over the
    overrun.  [timeout = None] is just [f x].  The request-serving
    worker loop enforces its per-request deadline with it. *)
val timed : ?timeout:float -> ('a -> 'b) -> 'a -> 'b

(** [map ?chunk pool f arr] is [Array.map f arr], computed by all pool
    members.  [chunk] requests the widest index range executed without
    further splitting (default: a heuristic giving each worker a few
    leaves); the pool auto-partitions — a chunk finer than
    [n / (8 * jobs)] is coarsened to that floor, since beyond ~8 leaves
    per participant extra splits only add claim traffic.  Granularity
    affects scheduling only, never the result.  Safe to call
    concurrently from several threads and reentrantly from within [f] —
    see the concurrency contract above. *)
val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array

(** [run ?jobs ?chunk f arr] is a one-shot {!map} on a temporary pool:
    [with_pool ?jobs (fun p -> map ?chunk p f arr)].  [jobs <= 1] is a
    plain [Array.map] with no domain spawned. *)
val run : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [run_local ?jobs ?chunk ~init f arr] is {!run} where [f] additionally
    receives a mutable scratch state, created by [init] once per
    participating domain ([jobs <= 1]: a single state for the whole
    array, which [f] then sees in index order).  Intended for
    performance hints that survive between items claimed by the same
    domain — e.g. the previous item's optimal simplex basis as a warm
    start.  The determinism guarantee of {!run} only extends to
    [run_local] if [f]'s {e result} does not depend on the state (the
    state may freely change how fast the result is computed).  The
    order searches of [Dls.Brute] and [Dls.Search] run their tasks
    through it for every [jobs]. *)
val run_local :
  ?jobs:int ->
  ?chunk:int ->
  init:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  'b array
