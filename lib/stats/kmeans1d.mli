(** Optimal 1-D k-means by dynamic programming.

    Sect. 6.3 of the paper clusters link costs with k-means before handing
    them to the solvers: "Since the link costs are in one dimension, such
    k-means can be optimally solved in O(kN) time using dynamic programming".
    N, the number of distinct values, is large here: 1,892 for 44
    instances and about 5,800 for 77, and the classic O(k·N²) interval DP
    took about 0.2 s per advise at 44 instances (k = 20, release build,
    2-core x86-64 VM). Because the interval SSE is
    Monge, the smallest optimal start of the last cluster is
    non-decreasing in the right end, and each DP row is filled by divide
    and conquer over that split point in O(N log N): O(k·N log N) in all,
    with two live DP rows plus a k×N table of split points. Ties go to the
    smallest start, so centers, boundaries and cost are bit-identical to
    the full DP (a test compares them against it). *)

type result = {
  centers : float array;    (** cluster means, ascending *)
  boundaries : float array; (** ascending distinct input values at cluster starts *)
  cost : float;             (** total within-cluster sum of squared error *)
}

val cluster : k:int -> float array -> result
(** [cluster ~k xs] optimally partitions the multiset [xs] into at most [k]
    contiguous clusters (in value order), minimizing within-cluster squared
    error. If [xs] has fewer than [k] distinct values, each distinct value
    becomes its own cluster. Raises [Invalid_argument] if [k <= 0], [xs]
    is empty, or [xs] contains a non-finite value (NaN/±inf would silently
    corrupt the DP tables). *)

val assign : result -> float -> float
(** [assign r x] maps [x] to its cluster's mean (the rounding the paper
    applies to all link costs before solving). *)

val assign_index : result -> float -> int
(** Index of the cluster [x] falls into (nearest center). *)

val distinct_count : float array -> int
(** Number of distinct values, a convenience for choosing [k] sweeps. *)
