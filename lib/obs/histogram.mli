(** Log-bucketed latency/value histograms with bounded relative error.

    DDSketch-style: bucket [i] covers the value interval
    [(gamma^(i-1), gamma^i]] with [gamma = (1+alpha)/(1-alpha)], and the
    bucket's representative value [2*gamma^i/(gamma+1)] is within a
    relative error of [alpha] of every value in the interval — so every
    quantile estimate carries the same bound, independent of the data.

    Memory is fixed at the first record (one [int Atomic.t] per bucket
    over the trackable range ~1e-9 .. 1e15, ~2.8k buckets at the default
    [alpha = 0.01]); until then a histogram costs a few words, so
    registering one for an instrumented path that runs untraced costs
    nothing. Recording is lock-free and domain-safe (one
    [fetch_and_add] on the bucket plus CAS loops for the float
    accumulators), so hot loops on several domains can share one
    histogram. Like {!Counter} and {!Gauge}, histograms are process-global
    and always on — independent of the event sink. *)

type t

val default_alpha : float
(** 0.01 — quantile estimates within 1 % relative error. *)

val create : ?alpha:float -> string -> t
(** A fresh, unregistered histogram (tests, local aggregation). [alpha]
    is clamped to (0.0005, 0.5); raises [Invalid_argument] outside it. *)

val make : ?alpha:float -> string -> t
(** Idempotent registered constructor, like {!Counter.make}: the same
    name always returns the same histogram ([alpha] of the first call
    wins). Registered histograms appear in {!snapshot}. *)

val record : t -> float -> unit
(** Record one value. NaN is ignored; zero and negative values land in a
    dedicated underflow bucket; values outside the trackable range clamp
    to the extreme buckets (their min/max accumulators stay exact). *)

val record_ns : t -> int64 -> unit
(** [record h ns] for an [int64] nanosecond delta. *)

val name : t -> string
val alpha : t -> float
val count : t -> int

(** Immutable point-in-time view — what exporters serialize and
    {!Trace} re-loads. Bucket indices are absolute (the [i] of
    [gamma^i]), sparse, ascending, with non-zero counts only. *)
type snapshot = {
  hist_name : string;
  hist_alpha : float;
  hist_count : int;
  hist_sum : float;
  hist_min : float;  (** [infinity] when empty *)
  hist_max : float;  (** [neg_infinity] when empty *)
  hist_zero : int;   (** values <= 0 *)
  hist_buckets : (int * int) list;
}

val snapshot_of : t -> snapshot
(** Not atomic across cells: concurrent recording can make [hist_count]
    differ from the bucket total by in-flight records, which quantile
    estimation tolerates. *)

val snapshot : unit -> snapshot list
(** Every registered histogram, sorted by name. *)

val merge : snapshot -> snapshot -> snapshot
(** Bucket-wise sum; keeps the first name. Raises [Invalid_argument] on
    differing [alpha] (buckets would not align). Associative and
    commutative on counts/buckets/min/max (float [hist_sum] is subject to
    rounding). *)

val quantile_of : snapshot -> float -> float
(** [quantile_of s q] estimates the [q]-quantile (q clamped to [0,1]) of
    the recorded values, within relative error [hist_alpha] for positive
    values; NaN when empty. The estimate is clamped to
    [[hist_min, hist_max]]. *)

val quantile : t -> float -> float
(** [quantile_of (snapshot_of t)]. *)

val mean_of : snapshot -> float
(** [hist_sum /. hist_count]; NaN when empty. *)

val value_of_bucket : alpha:float -> int -> float
(** The representative value of absolute bucket [i]:
    [2 * gamma^i / (gamma + 1)]. *)

val bucket_of_value : alpha:float -> float -> int
(** The absolute bucket index a positive value lands in:
    [ceil (log v / log gamma)]. *)

val reset_all : unit -> unit
(** Zero every registered histogram (test isolation). *)
