(** Link-cost clustering as it was before the rank table — the reference
    for {!Cloudia.Clustering}.

    It filters the finite off-diagonal cells, clusters them with the full
    DP of {!Kmeans1d}, and rounds each cell by a scan for its nearest
    center (the first on a tie); [none] sorts the finite cells and
    deduplicates them. The production version reads all of this off one
    rank table; on every matrix both give bit-identical rounded matrices
    and levels, except that a zero level may differ in sign when a
    matrix holds both -0 and +0. *)

type t = { rounded : Lat_matrix.t; levels : float array }

val cluster : k:int -> Lat_matrix.t -> t
val none : Lat_matrix.t -> t
