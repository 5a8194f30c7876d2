(** Shared monotonic clock.

    The daemon's evaluation times and latency stamps measure
    {e elapsed} time, so they must read a clock that cannot step: a
    wall-clock adjustment (NTP correction, manual reset) during a task
    would otherwise fire a spurious timeout or file a negative latency.
    This module reads [CLOCK_MONOTONIC] through a tiny C stub — no
    extra dependency — and is safe to call from any domain or thread.

    The epoch is arbitrary (typically system boot): values are only
    meaningful as differences. *)

(** [now_ns ()] is the monotonic clock in nanoseconds since an
    arbitrary epoch. *)
val now_ns : unit -> int64

(** [now ()] is the monotonic clock in seconds since an arbitrary
    epoch, as a float ([now_ns] scaled; ~microsecond granularity is
    preserved for any realistic uptime). *)
val now : unit -> float

(** [elapsed_s ~since] is [now () -. since], clamped to be
    non-negative. *)
val elapsed_s : since:float -> float
