(** Core types of the node deployment problem (Sect. 3.3 of the paper).

    A {e problem} couples a communication graph over application nodes with
    a communication-cost matrix over allocated instances (Definition 1).
    A {e deployment plan} (Definition 2) is an injection of nodes into
    instances; instances left unmapped are the over-allocated ones ClouDiA
    terminates. *)

type problem = private {
  graph : Graphs.Digraph.t;  (** communication graph over nodes 0..n-1 *)
  lat : Lat_matrix.t;  (** [lat[j, j']] = link cost from instance j to j'
                           (ms) in one flat row-major buffer; square, zero
                           diagonal, possibly asymmetric, no triangle
                           inequality assumed. An off-diagonal [nan] marks
                           an {e unsampled} pair (partial measurement);
                           {!Cost} evaluation over a plan touching one
                           returns [nan], and {!Advisor.gate} refuses
                           such matrices before they reach a solver
                           ([LAT007]).
                           Read through {!cost}/{!unsafe_cost} or
                           [Lat_matrix] accessors — never by materializing
                           boxed rows on a hot path. *)
}

val problem : graph:Graphs.Digraph.t -> costs:float array array -> problem
(** Build from a boxed matrix (convenient for tests and CSV loads); the
    rows are copied into flat storage. Validates: the cost matrix is
    square with zero diagonal and non-negative entries, and has at least
    as many instances as the graph has nodes. Off-diagonal [nan] entries
    are accepted as unsampled markers; infinities and negative costs are
    rejected, as is a [nan] diagonal. *)

val of_matrix : graph:Graphs.Digraph.t -> Lat_matrix.t -> problem
(** Build directly from a flat matrix (measurement pipelines, binary
    loads) — same validation as {!problem}, no boxed detour. *)

val node_count : problem -> int
(** Number of application nodes. *)

val instance_count : problem -> int
(** Number of allocated instances (≥ node count). *)

val cost : problem -> int -> int -> float
(** [cost t j j'] is the link cost from instance [j] to [j'],
    bounds-checked. *)

val unsafe_cost : problem -> int -> int -> float
(** Unchecked read for kernel loops whose indices are validated by
    construction (plans are injections into the instance set). *)

type plan = int array
(** [plan.(i)] is the instance hosting application node [i]. *)

val is_valid : problem -> plan -> bool
(** Length equals node count, every entry in range, no two nodes share an
    instance. *)

val validate : problem -> plan -> unit
(** Raise [Invalid_argument] with a description if {!is_valid} is false. *)

val identity_plan : problem -> plan
(** Node [i] on instance [i] — the provider-order "default deployment" the
    paper compares against. *)

val random_plan : Prng.t -> problem -> plan
(** A uniformly random injection of nodes into instances. *)

val unused_instances : problem -> plan -> int list
(** Instances the plan leaves empty (the ones ClouDiA would terminate),
    ascending. *)

val pp_plan : Format.formatter -> plan -> unit
