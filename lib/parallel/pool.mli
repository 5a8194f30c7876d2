(** Domain pool: deterministic data-parallel maps over OCaml 5 domains,
    scheduled by self-scheduling on a shared counter.

    A pool owns [jobs - 1] worker domains; the caller of {!map}
    participates as one more executor.  A {!map} call publishes its
    array as a batch on the pool's list of open batches; every
    participant claims the batch's next unclaimed index with one
    [Atomic.fetch_and_add] until the batch is exhausted.  Indices are
    claimed in ascending order.  Every caller of the pool maps a short
    array of coarse tasks (permutation blocks, search roots, sweep
    points, fuzz cases), so one claim per item costs nothing
    measurable.  The daemon's evaluators are the one long-lived use:
    {!run} over one item per participant, each item a loop that lasts
    as long as the server.

    {2 Determinism}

    Results are written into per-index slots, so the output of
    [map pool f arr] is {e exactly} [Array.map f arr] — same values,
    same order — independently of [jobs], claim order, or how many
    other [map] calls run at the same time.  Scheduling decides only
    {e who} computes an item, never what the output contains.

    Exceptions raised by [f] are caught per item; after the batch
    completes, the exception of the {e smallest} failing index is
    re-raised in the caller.  A failed batch leaves the pool fully
    reusable.

    {2 Concurrency contract}

    - Any number of threads or domains may call {!map} on the same pool
      at the same time; their batches share the workers and each call
      returns its own deterministic result.
    - [f] may itself call {!map} on the same pool.  Every caller claims
      from its own batch until it is exhausted, so nesting cannot
      deadlock.

    {!shutdown} must not race with in-flight {!map} calls: quiesce
    callers first ({!with_pool} and {!run} shut down only after their
    map returns, which for the daemon is once its evaluator loops have
    drained the closed admission queue).

    The pool has no per-task budget: {!timed} is a separate wrapper,
    used by the daemon's evaluator loops. *)

type t

(** [default_jobs ()] is [Domain.recommended_domain_count ()]: the
    parallelism the hardware is expected to sustain. *)
val default_jobs : unit -> int

(** [create ~jobs ()] spawns [max 0 (jobs - 1)] worker domains
    (default [default_jobs ()]).  [jobs <= 1] builds a pool that runs
    everything in the calling domain. *)
val create : ?jobs:int -> unit -> t

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

(** [map pool f arr] is [Array.map f arr], computed by all pool
    members.  Safe to call concurrently from several threads and
    reentrantly from within [f] — see the concurrency contract above. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [run ?jobs f arr] is a one-shot {!map} on a temporary pool:
    [with_pool ?jobs (fun p -> map p f arr)].  [jobs <= 1] is a plain
    [Array.map] with no domain spawned. *)
val run : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** [run_local ?jobs ~init f arr] is {!run} where [f] additionally
    receives a mutable scratch state, created by [init] once per
    participating domain, so at most [jobs] times per call ([jobs <= 1]:
    a single state for the whole array, which [f] then sees in index
    order).  Intended for performance hints that survive between items
    claimed by the same domain — e.g. the previous item's optimal
    simplex basis as a warm start.  The determinism guarantee of {!run}
    only extends to [run_local] if [f]'s {e result} does not depend on
    the state (the state may freely change how fast the result is
    computed).  The order searches of [Dls.Brute] and [Dls.Search] run
    their tasks through it for every [jobs]. *)
val run_local :
  ?jobs:int -> init:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a array -> 'b array
