(** Degree labels computed per neighbour — the reference for
    {!Graphs.Labeling.compute}.

    For each node, the undirected neighbourhood of every neighbour is
    rebuilt from its arc lists (append, then sort), so each degree is
    recomputed once per incident node. The production version computes
    every undirected degree once by merging the sorted arc lists. *)

val compute : Graphs.Digraph.t -> (int * int * int array) array
(** Per node: in-degree, out-degree and the undirected degrees of its
    undirected neighbours, sorted descending. *)
