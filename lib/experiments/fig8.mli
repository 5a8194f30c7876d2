(** Figure 8: linearity test.

    The paper validates the linear cost model by sending messages of
    0.5-5 MB to workers with simulated link speed-ups 1-5 and plotting
    transfer time against size: the points fall on worker-specific lines
    through the origin.  We reproduce the test against the simulated
    cluster's noisy links and report per-worker least-squares fits
    (slope, intercept, R²) alongside the raw series. *)

val run : unit -> Report.t
