(** Monotonic clock for timing solver runs.

    [Unix.gettimeofday] is wall time: it jumps under NTP adjustment and,
    more importantly for the domain-parallel sweep engine, it charges a
    task for every scheduling gap between its two clock reads.
    [CLOCK_MONOTONIC] never steps backwards and is the clock every
    timing report in this repo ({!Strategies.evaluate}, the sweep
    engine, the bench harness) is measured on. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock.  Only differences are
    meaningful; the epoch is unspecified (boot time on Linux). *)

val now_s : unit -> float
(** {!now_ns} in seconds. *)

val elapsed_s : int64 -> float
(** [elapsed_s t0] is the seconds elapsed since the earlier
    {!now_ns} reading [t0]. *)
