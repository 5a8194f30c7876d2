(** The master's port, walked once (Section 5 of the paper).

    The master is one sequential resource: it posts its sends in
    [sigma1] order and takes the results back in [sigma2] order, so
    executing a plan is a single pass over its port operations, with no
    event queue.  A send starts when the port is free and its data is
    released, a worker computes its chunks in arrival order, and a
    return starts when the port is free and the chunk's computation has
    ended.  The walk is written once over the clock's type: exact
    rationals date the re-planner's replay and the faulted executor
    ({!Replan.walk_seq}), floats the noisy simulator ([Sim.Star]). *)

(** A phase of one chunk's life. *)
type phase = Send | Compute | Return

(** The direction of one port operation. *)
type direction = Op_send | Op_return

(** Master decision policy.

    - [Sends_first]: post every send, then take the returns in [sigma2]
      order — the paper's canonical structure and what its MPI program
      did;
    - [Eager_returns]: before each send, take the next return instead if
      its chunk's computation has already ended.  Still one-port and
      still order-respecting, but a different interleaving — an
      execution-policy ablation the model fixes by assumption. *)
type protocol = Sends_first | Eager_returns

(** One port operation on a clock of type ['c]; [data] is the caller's,
    handed back to [finish] and in each step. *)
type ('c, 'a) op = { worker : int; direction : direction; release : 'c; data : 'a }

(** A phase of [op] that ran over [[start, finish]]. *)
type ('c, 'a) step = { op : ('c, 'a) op; phase : phase; start : 'c; finish : 'c }

module type CLOCK = sig
  type t

  val max : t -> t -> t
  val compare : t -> t -> int
end

module Make (C : CLOCK) : sig
  (** [run ~start ~protocol ~finish ops] walks [ops], in port order,
      with the port free from [start].  [finish op phase t] dates the
      end of [op]'s [phase] started at [t].  [None] means the phase
      never completes: the chunk is lost and the master skips its
      return at once, without holding the port.  The steps come in the
      order they were dated.  A return finding no chunk of its worker
      left to take is skipped.  Worker indices must be non-negative. *)
  val run :
    start:C.t ->
    protocol:protocol ->
    finish:((C.t, 'a) op -> phase -> C.t -> C.t option) ->
    (C.t, 'a) op list ->
    (C.t, 'a) step list
end
