(** Figure 14 (and its worker table): resource selection in practice.

    Four workers with communication speed-ups (10, 8, 8, x) and
    computation speed-ups (9, 9, 10, 1); campaigns of 1000 products of
    400x400 matrices, offering 1 to 4 workers to the scheduler.  With
    [x = 1] the framework must refuse the slow fourth worker; with
    [x = 3] it must enroll it for a (barely visible) gain. *)

(** [run ~x ()] produces one row per number of available workers:
    LP time, simulated time, number of workers actually enrolled. *)
val run : x:int -> unit -> Report.t

(** [worker_table ()] is the platform description table from Section
    5.3.4. *)
val worker_table : x:int -> Report.t
