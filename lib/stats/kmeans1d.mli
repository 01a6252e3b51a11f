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

val cluster : k:int -> float array -> int array -> result
(** [cluster ~k values counts] optimally partitions a multiset into at
    most [k] contiguous clusters (in value order), minimizing
    within-cluster squared error. The multiset is given as its distinct
    values, strictly ascending, and how many times each occurs: one sort
    of the input, done by the caller ([Lat_matrix.Ranks] for link
    costs), so this module sorts nothing. If there are fewer than [k]
    distinct values, each becomes its own cluster. Raises
    [Invalid_argument] if [k <= 0], [values] is empty, the two arrays
    differ in length, a value is non-finite (NaN/±inf would silently
    corrupt the DP tables), the values do not strictly ascend, or a count
    is not positive. *)

val assign : result -> float -> float
(** [assign r x] maps [x] to the mean of its nearest cluster, the first
    one on a tie (the rounding the paper applies to all link costs before
    solving). *)

val distinct_count : float array -> int
(** Number of distinct values, a convenience for choosing [k] sweeps. *)
