(** The one solver front door.

    Call sites say {e what} guarantee they need through [mode], not
    {e which} pipeline to run.  All three modes return bit-identical
    {!Lp_model.solved} records by construction (each answers with the
    scenario's normal form where it has one; the fast pipeline
    otherwise certifies or falls back; the cache stores the same
    records), so [mode] is purely a performance knob.  {!Lp_model.run}
    documents the pipelines and the canonical answer. *)

(** How to run the solve:
    - [`Exact]: the cold exact simplex — the reference path — then the
      normal form where there is one (its chain walk is picked by
      floats and proved exactly);
    - [`Fast]: certified float-first pipeline, bit-identical to
      [`Exact] (default);
    - [`Cached]: [`Fast] memoized through the process-wide LRU.  A miss
      runs [`Fast] with the caller's [warm] hint: pass a solved
      neighbour's basis (e.g. the base of a {!Delta} nudge) and it is
      certified first, with no pivots, when it is still optimal. *)
type mode = [ `Exact | `Fast | `Cached ]

(** [solve ?mode ?model ?warm ?max_float_pivots scenario] solves the
    scenario LP (defaults: [`Fast], [One_port]).  [warm] (a
    neighbouring scenario's terminal basis) and [max_float_pivots] only
    affect the [`Fast] and [`Cached] modes. *)
val solve :
  ?mode:mode ->
  ?model:Lp_model.model ->
  ?warm:int array ->
  ?max_float_pivots:int ->
  Scenario.t ->
  (Lp_model.solved, Errors.t) result

(** [solve_exn] is {!solve}. @raise Errors.Error on a degenerate LP. *)
val solve_exn :
  ?mode:mode ->
  ?model:Lp_model.model ->
  ?warm:int array ->
  ?max_float_pivots:int ->
  Scenario.t ->
  Lp_model.solved
