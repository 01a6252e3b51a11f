(** Degree-based compatibility labeling for subgraph isomorphism.

    Sect. 4.2: "we define a labeling based on in- and out-degree, as well as
    information about the labels of neighboring nodes. This labeling
    establishes a partial order on the nodes and expresses compatibility
    between them" (following Zampelli, Deville & Solnon, Constraints 2010).

    A pattern node [p] can only be mapped onto a target node [t] if [t]'s
    label dominates [p]'s: the target must have at least the in-degree and
    out-degree of the pattern node, and — iterating one level — the
    multiset of its neighbors' degrees must dominate the pattern node's
    neighbor-degree multiset. Filtering target domains with this test prunes
    the CP search tree at the root. *)

type label = private {
  in_deg : int;
  out_deg : int;
  neighbor_degrees : int array;
      (** undirected degrees of the node's undirected neighbours, sorted
          descending *)
}
(** The (iterated-degree) label of one node. *)

val compute : Digraph.t -> label array
(** Per-node labels after one round of neighborhood refinement. Every
    undirected degree is computed once, so a graph with [E] arcs costs
    O(E log E). *)

val compatible : pattern:label -> target:label -> bool
(** [compatible ~pattern ~target] is true iff a node labeled [pattern] can
    be mapped onto a node labeled [target] in some subgraph isomorphism
    (necessary condition; sound to prune when false). *)

val compatibility_matrix : pattern:Digraph.t -> target:Digraph.t -> bool array array
(** [m.(p).(t)] is true iff pattern node [p] may map onto target node [t]
    according to the labels. *)
