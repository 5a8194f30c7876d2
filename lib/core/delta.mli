(** Parametric deltas against a base platform/scenario.

    Production request streams are dominated by near-duplicates of a
    canonical base case: the same platform with one worker's link or
    compute speed nudged, a worker added or removed, or the return
    ratio [z] swept (the parametric analyses of Drozdowski & Lawenda's
    line of work).  This module gives those edits a first-class,
    composable representation so callers can say "the base scenario,
    plus these changes" instead of rebuilding platforms by hand — and so
    a caller can re-solve the result with the base's optimal basis as
    the warm start ({!Solve.solve}[ ~mode:`Cached ~warm:base.basis]): for
    a small nudge that basis usually still certifies, with no pivots
    (see also {!Lp_model.solve_from_neighbor}).

    {!Sensitivity}'s [Comm]/[Comp] perturbations are the two
    single-change special cases ({!Sensitivity.to_delta}). *)

module Q = Numeric.Rational

(** One edit.  Worker indices are 0-based (the text form
    {!of_spec}/{!to_spec} uses 1-based indices, matching the default
    [P1..Pn] worker names). *)
type change =
  | Scale_comm of { worker : int; factor : Q.t }
      (** scale the worker's [c] {e and} [d] by [factor > 0],
          preserving the return ratio (the paper's hypothesis) *)
  | Scale_comp of { worker : int; factor : Q.t }
      (** scale the worker's [w] by [factor > 0] *)
  | Set_z of Q.t
      (** impose a uniform return ratio: [d_i := z * c_i] on every
          worker, [z >= 0] *)
  | Add_worker of Platform.worker  (** append a worker *)
  | Remove_worker of int  (** remove the worker (at least one must stay) *)

(** A delta: changes applied left to right. *)
type t = change list

(** [preserves_shape d] holds when [d] keeps the worker count (no
    {!Add_worker}/{!Remove_worker}): exactly the deltas whose perturbed
    LP has the same dimensions as the base, so the base's optimal basis
    can certify it. *)
val preserves_shape : t -> bool

(** [apply platform d] applies every change in order.  Out-of-range
    indices, non-positive factors, a negative [z], or removing the last
    worker yield [Error (Invalid_scenario _)]. *)
val apply : Platform.t -> t -> (Platform.t, Errors.t) result

val apply_exn : Platform.t -> t -> Platform.t

(** [apply_scenario s d] applies [d] to the scenario's platform.  When
    the worker count is unchanged the permutation pair is kept verbatim;
    when it changes (add/remove), the orderings are rebuilt as the
    full-enrollment FIFO of the new platform — re-sort explicitly if a
    different order is wanted. *)
val apply_scenario : Scenario.t -> t -> (Scenario.t, Errors.t) result

val apply_scenario_exn : Scenario.t -> t -> Scenario.t

(** {1 Text form}

    Comma-separated changes, 1-based worker indices:
    [comm:2:5/4] (scale worker 2's [c],[d] by 5/4), [comp:1:1/2],
    [z:3/2], [add:1:2:1/2] ([c:w:d], auto-named), [drop:3]. *)

(** [of_spec ?file ~line ~col s] parses the compact delta spec;
    positions in errors are 1-based and offset by [col] (stray
    separators and whitespace-only fields are rejected with the exact
    position of the offending field). *)
val of_spec :
  ?file:string -> line:int -> col:int -> string -> (t, Errors.t) result

(** [to_spec d] renders the canonical spec; [of_spec] of the result is
    [d] again. *)
val to_spec : t -> string

(** [pp platform fmt d] pretty-prints against the base platform (worker
    names resolved). *)
val pp : Platform.t -> Format.formatter -> t -> unit
