(** Strongly connected components (Tarjan's algorithm, iterative).

    After a maximum matching is found, edges within one SCC of the residual
    value graph belong to some maximum matching and must not be pruned
    (Régin 1994). The production alldifferent propagator ([Cp.Csp]) runs
    its own iterative Tarjan over preallocated buffers; this module serves
    the reference propagator in the tests ([test/cp_reference]). *)

val tarjan : n:int -> succ:(int -> int array) -> int array
(** [tarjan ~n ~succ] returns an array mapping each node to the index of its
    strongly connected component. Component indices are dense in \[0, k). *)

val count : int array -> int
(** Number of distinct components in a component-index array. *)
