(** Optimal 1-D k-means by the full O(k·N²) interval DP — the reference
    for {!Stats.Kmeans1d.cluster}.

    Every DP cell scans every start of its last cluster, keeping the
    first strict minimum, with all k rows of costs and split points
    stored. The production version fills each row by divide and conquer
    over the split point; on every input both return bit-identical
    centers, boundaries and cost. *)

val cluster : k:int -> float array -> Stats.Kmeans1d.result
