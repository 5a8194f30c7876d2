(** One measured campaign: a heuristic, dimensioned by the LP, executed
    on the simulated cluster.  This is the unit of work behind every
    heuristic-comparison figure. *)

type measurement = {
  heuristic : Dls.Heuristics.t;
  lp_time : float;  (** LP-predicted makespan for the campaign (seconds) *)
  real_time : float;  (** simulated makespan with rounding + noise *)
  workers_used : int;  (** workers that actually received items *)
}

(** [measure ?noise_params ~rng ~machine ~n ~total factors heuristic]
    builds the matrix-product platform, solves the heuristic's LP,
    rounds the loads to [total] items and executes the campaign on the
    simulated cluster. *)
val measure :
  ?noise_params:Cluster.Noise.params ->
  rng:Numeric.Prng.t ->
  machine:Cluster.Workload.machine ->
  n:int ->
  total:int ->
  Cluster.Gen.factors ->
  Dls.Heuristics.t ->
  measurement

(** [measure_platform ?noise_params ~rng ~n ~total platform heuristic]:
    same, for an already-built platform ([n] only parameterizes the
    noise model's cache term). *)
val measure_platform :
  ?noise_params:Cluster.Noise.params ->
  rng:Numeric.Prng.t ->
  n:int ->
  total:int ->
  Dls.Platform.t ->
  Dls.Heuristics.t ->
  measurement
