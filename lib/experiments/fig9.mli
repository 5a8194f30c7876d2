(** Figure 9: trace visualization of one campaign on a heterogeneous
    platform.

    As in the paper, a 5-worker heterogeneous platform is scheduled with
    the FIFO INC_C heuristic; because of resource selection only three
    of the five workers actually compute.  The report carries the
    per-worker loads and an ASCII Gantt chart of the simulated
    execution (data transfers, computations, result transfers). *)

(** [run ?jobs ()] deterministically searches platform seeds until
    resource selection drops exactly two of the five workers, then
    simulates and renders that campaign.  [jobs] (default 1) probes
    candidate seeds on a domain pool; the lowest matching seed is kept,
    so the report is identical for every [jobs] value.
    @raise Dls.Errors.Error ([Invalid_scenario]) if no seed below the
    search limit produces the wanted selectivity. *)
val run : ?width:int -> ?jobs:int -> unit -> Report.t

