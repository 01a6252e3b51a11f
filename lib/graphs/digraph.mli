(** Directed graphs over integer nodes [0 .. n-1].

    Communication graphs (Definition 3 of the paper) are directed graphs
    whose nodes are application components and whose edges are the [talks]
    relation. This module provides the immutable graph representation used
    throughout the repository, plus the DAG utilities required by the
    longest-path deployment cost. *)

type t
(** An immutable directed graph. Parallel edges are collapsed; self-loops
    are rejected at construction. *)

val create : n:int -> (int * int) list -> t
(** [create ~n edges] builds a graph on nodes [0..n-1]. Raises
    [Invalid_argument] if an endpoint is out of range or an edge is a
    self-loop. Duplicate edges are collapsed. *)

val of_predicate : n:int -> (int -> int -> bool) -> t
(** [of_predicate ~n edge] has an arc [u -> v] for every pair [u <> v]
    with [edge u v]: the graph [create] builds from those pairs, without
    an intermediate edge list — for dense graphs such as a cost
    threshold's, where the list would dominate the allocation. *)

val n : t -> int
(** Number of nodes. *)

val edge_count : t -> int
(** Number of distinct directed edges. *)

val edges : t -> (int * int) array
(** All edges, lexicographically sorted. The returned array is fresh. *)

val mem_edge : t -> int -> int -> bool
(** Edge membership test, O(log out-degree). *)

val out_neighbors : t -> int -> int array
(** Successors of a node (sorted, shared — do not mutate). *)

val in_neighbors : t -> int -> int array
(** Predecessors of a node (sorted, shared — do not mutate). *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val undirected_neighbors : t -> int -> int array
(** Union of in- and out-neighbors, sorted, without duplicates. *)

val undirected_degree : t -> int -> int

val is_dag : t -> bool
(** True iff the graph has no directed cycle. *)

val topological_order : t -> int array option
(** A topological order of the nodes, or [None] if the graph has a cycle. *)

val longest_path : t -> weight:(int -> int -> float) -> float
(** [longest_path g ~weight] is the maximum, over directed paths in the DAG
    [g], of the sum of [weight u v] over the path's edges. Isolated nodes
    contribute 0. Raises [Invalid_argument] if [g] is not a DAG. Weights may
    be negative, but the empty path (cost 0) is always a candidate, matching
    the paper's definition where a path of links aggregates by summation. *)

val longest_path_witness : t -> weight:(int -> int -> float) -> float * int list
(** Longest path value together with one witness path (node sequence). *)

val map_nodes : t -> (int -> int) -> n:int -> t
(** [map_nodes g f ~n] relabels each node [v] as [f v] in a graph on
    [n] nodes. [f] must be injective on [g]'s nodes. *)

val transpose : t -> t
(** Reverse every edge. *)

val is_connected_undirected : t -> bool
(** True iff the undirected version of the graph is connected (graphs with
    zero or one node count as connected). *)

val pp : Format.formatter -> t -> unit
(** Debugging rendering: node count and the edge list. *)
