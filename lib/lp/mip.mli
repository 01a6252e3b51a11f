(** Branch-and-bound mixed-integer programming.

    Minimizes a {!Model} objective with the declared integrality enforced.
    Best-first search on the LP-relaxation bound; branching on the most
    fractional integer variable; time and node limits; an incumbent callback
    for recording convergence traces (the paper's Figs. 7, 9, 15 plot
    best-solution-so-far against wall-clock time). *)

type outcome =
  | Mip_optimal of float * float array
      (** proven optimal objective and solution *)
  | Mip_feasible of float * float array
      (** best incumbent when a limit stopped the search *)
  | Mip_infeasible
  | Mip_unbounded

type strategy =
  | Best_first   (** explore by lowest LP bound; minimal nodes when the
                     relaxation is strong *)
  | Depth_first  (** dive toward integer leaves, preferring the branch the
                     LP rounds to; finds incumbents early when the
                     relaxation is weak (the deployment encodings are) *)

type stats = {
  nodes_explored : int;
  nodes_pruned : int;
      (** subtrees cut by the incumbent bound — before solving their LP
          (bound-dominated pops) or right after (relaxation no better than
          the incumbent); the search-effort-saved quantity of Fig. 7 *)
  elapsed_seconds : float;
  proven_optimal : bool;
}

module type RELAXATION = sig
  val solve_relaxation_basis :
    ?should_stop:(unit -> bool) ->
    ?extra:(Model.var * Simplex.relation * float) list ->
    ?warm_basis:int array ->
    Model.t ->
    Simplex.status * int array
end
(** What branch and bound needs from an LP kernel: the relaxation with
    branch rows [extra], warm-started from the parent's [warm_basis],
    returning its own basis for the children. {!Model} is the production
    instance. *)

module Make (R : RELAXATION) : sig
  val solve :
    ?time_limit:float ->
    ?node_limit:int ->
    ?should_stop:(unit -> bool) ->
    ?strategy:strategy ->
    ?on_incumbent:(obj:float -> solution:float array -> elapsed:float -> unit) ->
    ?initial_incumbent:float * float array ->
    Model.t ->
    outcome * stats
end
(** Branch and bound over any kernel with {!Model}'s relaxation
    signature, so tests can run the same search over a reference kernel
    and compare. *)

val solve :
  ?time_limit:float ->
  ?node_limit:int ->
  ?should_stop:(unit -> bool) ->
  ?strategy:strategy ->
  ?on_incumbent:(obj:float -> solution:float array -> elapsed:float -> unit) ->
  ?initial_incumbent:float * float array ->
  Model.t ->
  outcome * stats
(** [solve m] runs branch and bound, every relaxation on the {!Sparse}
    kernel through {!Model.solve_relaxation_basis}: the root cold, each
    child warm-started from its parent's optimal basis. [time_limit] is
    in seconds (default none); [node_limit] caps explored nodes (default
    none); [should_stop] is polled once per node — and, with
    [time_limit], before every simplex pivot inside each LP solve, so one
    large relaxation cannot overrun the budget — and aborts the search
    like a hit time limit (cooperative cancellation for solver
    portfolios); [on_incumbent] fires every time a strictly better
    integer-feasible solution is found; [strategy] picks the exploration
    order (default {!Depth_first}); [initial_incumbent] seeds the search
    with a known feasible objective/solution (the paper bootstraps its
    solvers with the best of 10 random deployments). Integrality
    tolerance is [1e-6]. *)
