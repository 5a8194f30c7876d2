(** Random platform generation for the paper's experiment families
    (Section 5.3.2): per-worker integer speed-up factors drawn uniformly
    from 1-10. *)

type scenario =
  | Homogeneous
      (** one random comm factor and one random comp factor shared by all
          workers — "homogeneous random platforms" (Fig. 10) *)
  | Hom_comm_het_comp
      (** shared comm factor, per-worker comp factors (Fig. 11): the bus
          platforms of Theorem 2 *)
  | Heterogeneous  (** per-worker comm and comp factors (Fig. 12/13) *)

type factors = { comm : int array; comp : int array }

val scenario_name : scenario -> string

(** [factors rng scenario ~workers] draws the speed-up factors. *)
val factors : Numeric.Prng.t -> scenario -> workers:int -> factors

(** [scale ?comm_times ?comp_times f] multiplies all factors, for the
    Figure 13 "computation x10" / "communication x10" variants. *)
val scale : ?comm_times:int -> ?comp_times:int -> factors -> factors

(** [platform machine ~n f] instantiates the matrix-product platform for
    matrix size [n]. *)
val platform : Workload.machine -> n:int -> factors -> Dls.Platform.t
