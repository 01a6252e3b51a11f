(** Monotonic time source for every telemetry timestamp.

    Backed by [clock_gettime(CLOCK_MONOTONIC)], so timestamps never move
    backwards and differences are real elapsed durations — wall-clock
    (NTP-adjusted) time would break span nesting and incumbent ordering. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin (boot on Linux). Only
    differences between two readings are meaningful. *)

val now_s : unit -> float
(** {!now_ns} in seconds — the drop-in replacement for the
    [Unix.gettimeofday] deadline idiom ([start +. budget] comparisons)
    everywhere outside [lib/obs] and [bench/], where wall-clock jumps
    would corrupt solver budgets (enforced by the analyzer's pass
    A002). Same caveat: only differences are meaningful. *)

val ns_to_us : int64 -> float
val ns_to_ms : int64 -> float
val ns_to_s : int64 -> float
