(** Link-cost clustering (Sect. 6.3).

    "We use k-means to cluster link costs … all costs are modified to the
    mean of the containing cluster and then passed to the solver." Fewer
    distinct cost values means fewer iterations for the CP scheme
    (Sect. 4.2) at the price of approximating the objective.

    Both views read the matrix's {!Lat_matrix.Ranks} table and sort
    nothing themselves. Pass [ranks] to reuse a table built from the same
    matrix (a fingerprint-keyed cache hit); it changes no result, and a
    table of another dimension raises [Invalid_argument]. *)

type t = {
  rounded : Lat_matrix.t;  (** costs with every entry snapped to its
                               cluster mean; diagonal preserved at 0 *)
  levels : float array;  (** distinct cluster means, ascending *)
}

val cluster : ?ranks:Lat_matrix.Ranks.t -> k:int -> Lat_matrix.t -> t
(** Optimal 1-D k-means over the finite off-diagonal entries, weighted
    by how often each distinct value occurs. [k] is clamped to the number
    of distinct finite values, so any positive [k] is safe on small or
    degenerate instances; [k <= 0] raises. Each entry is rounded to its
    nearest center (the first one on a tie). Non-finite entries (NaN
    marks an unsampled pair) are excluded from clustering, kept verbatim
    in [rounded], and never appear in [levels]. An all-non-finite matrix
    yields [levels = [||]] and an unmodified copy. *)

val none : ?ranks:Lat_matrix.Ranks.t -> Lat_matrix.t -> t
(** No clustering: [rounded] is the input (copied); [levels] are its
    distinct {e finite} off-diagonal values ascending (±0 count as one).
    This is the "no clustering" configuration of Figs. 6 and 9. *)
