(** Deterministic pseudo-random number generation.

    All stochastic components of this repository draw randomness through this
    module so that experiments are reproducible bit-for-bit from a seed. The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    statistically solid 64-bit generator that supports cheap stream
    splitting, which we use to give independent substreams to independent
    simulation components. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator determined by [seed]. Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). Requires [bound > 0.]. *)

val uniform : t -> float
(** [uniform t] is uniform in \[0, 1). *)

val bits53 : t -> int
(** The 53 random bits behind {!uniform}, from the same single draw:
    [uniform t] is [float_of_int (bits53 t) *. 0x1p-53]. An [int] is
    never boxed, so a hot loop that scales the draw itself allocates
    nothing per draw, while a float returned from a call that is not
    inlined is boxed. *)

val bool : t -> bool
(** Fair coin. *)

val normal : t -> mean:float -> sd:float -> float
(** Gaussian via Box–Muller. Requires [sd >= 0.]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp (normal ~mean:mu ~sd:sigma)]. Always positive. *)

val exponential : t -> rate:float -> float
(** Exponential with the given [rate] (mean [1/rate]). Requires [rate > 0.]. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto type-I: support \[scale, ∞), tail exponent [shape].
    Requires [scale > 0.] and [shape > 0.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of \[0, n). *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on
    an empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values uniformly
    from \[0, n), in random order. Requires [0 <= k <= n]. *)
