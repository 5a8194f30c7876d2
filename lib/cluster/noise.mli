(** Noise models bridging the linear cost model and a "real" cluster.

    The simulated campaign times differ from the LP prediction for the
    same reasons the paper's MPI runs did: per-message protocol
    overheads, bandwidth and CPU jitter, and a computation cost that
    grows slightly super-linearly with matrix size once the working set
    leaves cache.  All randomness is drawn from an explicit
    {!Numeric.Prng}, so runs are reproducible. *)

type params = {
  comm_jitter : float;  (** lognormal sigma on transfer durations *)
  comp_jitter : float;  (** lognormal sigma on compute durations *)
  comm_overhead : float;
      (** constant multiplicative protocol overhead on transfers
          (e.g. 0.08 for +8%) *)
  comp_overhead : float;  (** same, for computations *)
  cache_pressure : float;
      (** extra multiplicative compute cost per unit of [n/200] —
          models the super-linear DGEMM cost the paper observes at
          large sizes (Fig. 13b) *)
}

val none : params

(** [make ?params rng ~n] builds the per-event noise hooks for a
    campaign at matrix size [n]. *)
val make : ?params:params -> Numeric.Prng.t -> n:int -> Sim.Star.noise
