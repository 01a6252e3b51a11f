(** Incremental (delta) cost evaluation for local search.

    Every move a local-search solver proposes — swap the instances of two
    nodes, or relocate a node onto a free instance — changes only the
    costs of the communication edges incident to the moved nodes, yet a
    full {!Cost.eval} re-scans every edge (longest link) or re-relaxes
    the whole DAG (longest path). A kernel built here is constructed once
    per [(problem, objective)] pair and answers each proposal from the
    parts of the objective the move can actually touch:

    - {b longest link}: per-node incident-edge arrays locate the O(deg)
      affected edges, and a bucketed max structure over the distinct cost
      values of the matrix (rank counts plus a lazily decremented top
      pointer) re-answers the maximum without a scan. Edges are tracked
      by rank alone: equal ranks mean compare-equal costs;
    - {b longest path}: a proposal marks the moved nodes and their
      successors dirty and walks the topological order from the earliest
      moved node, re-relaxing only dirty nodes. A node whose value
      changes dirties its successors; one whose value is unchanged stops
      the propagation. The new maximum is the committed one or a changed
      node's value, and all nodes are rescanned only when a node that
      held the committed maximum fell. {!commit} copies the changed nodes
      only. The pass is allocation-free; sync and propose share one
      relaxation body;
    - {b opaque evaluators} (weighted, bandwidth, …): proposals fall back
      to the supplied full evaluation, so one solver loop serves every
      objective and the counters make the fallback rate visible.

    Proposals follow a strict protocol: at most one proposal is pending
    at a time, and it must be resolved with {!commit} or {!abort} before
    the next one. Costs computed incrementally are bit-identical to
    {!Cost.eval} on the same plan — both objectives reduce to [max]/[+.]
    over the same operand sets, which float arithmetic evaluates
    order-independently — and the property tests assert exactly that.

    Telemetry: kernels count proposals, opaque full evaluations and
    longest-path node relaxations locally and publish them to the
    [delta.proposals], [delta.fallback_evals] and
    [delta.path_relaxations] {!Obs.Counter}s on {!flush_counters} (hot
    loops flush once per solve, per the [Obs] convention). *)

type t
(** A mutable kernel: the current plan, its cost, and the per-objective
    incremental state. Not thread-safe; give each domain its own. *)

val ranks_of_matrix : Lat_matrix.t -> Lat_matrix.Ranks.t
(** {!Lat_matrix.Ranks.of_matrix}, under the name the repository
    benchmark times it by. *)

val create : ?ranks:Lat_matrix.Ranks.t -> Cost.objective -> Types.problem -> Types.plan -> t
(** [create objective problem plan] validates [plan] (a partial injection
    of nodes into instances) and builds the kernel in O(|V| + |E| + R)
    where R is the number of distinct cost values. Raises
    [Invalid_argument] on an invalid plan, or for [Longest_path] on a
    cyclic communication graph. The plan is copied.

    [ranks] must have been built (by {!Lat_matrix.Ranks.of_matrix}) from
    [problem]'s cost matrix; it is trusted beyond a dimension check
    (raising [Invalid_argument] on mismatch) — key your cache by content
    fingerprint. Only [Longest_link] kernels use it; it is ignored for
    [Longest_path]. *)

val create_eval : eval:(Types.plan -> float) -> Types.problem -> Types.plan -> t
(** A kernel over an arbitrary plan-cost function. Proposals pay one full
    [eval] each (counted as fallbacks); the kernel still maintains the
    plan, the occupancy index, and the commit/abort protocol, so solver
    loops need no separate code path for non-standard objectives. *)

val cost : t -> float
(** Cost of the current (committed) plan. Unaffected by a pending
    proposal until it is committed. *)

val current : t -> Types.plan
(** The kernel's working plan array, borrowed: do not mutate, and copy if
    retained. While a proposal is pending this reflects the {e proposed}
    assignment. *)

val plan : t -> Types.plan
(** A fresh copy of the current plan. *)

val instance_of : t -> int -> int
(** [instance_of t node] is the instance currently hosting [node]. *)

val occupant : t -> int -> int option
(** [occupant t instance] is the node placed on [instance], if any. *)

val propose_move : t -> node:int -> target:int -> float
(** [propose_move t ~node ~target] tentatively moves [node] onto instance
    [target] — swapping with the occupant if [target] is occupied,
    relocating if it is free — and returns the cost of the resulting
    plan. The move is not applied to the committed state until {!commit};
    {!abort} restores everything. O(deg(node) + deg(occupant)) for
    longest link; O(dirty nodes and their in-edges) for longest path,
    plus O(|V|) when a node holding the maximum fell; O(full eval) for opaque
    kernels. Raises [Invalid_argument] if a proposal is already pending,
    an index is out of range, or [node] already occupies [target]. *)

val propose : t -> node:int -> target:int -> unit
(** [propose t ~node ~target] is {!propose_move} with the cost left in
    [(proposed t).(0)] instead of returned. *)

val proposed : t -> float array
(** The one-element array every proposal writes its cost to. Borrowed:
    read it, never write it. A float returned from a call that is not
    inlined is boxed (2 words): {!propose_move} is inlined only where the
    compiler sees across modules (not in [-opaque] builds), so a search
    loop that hoists this array and reads the cost from it allocates
    nothing per move in every build. *)

val propose_swap : t -> int -> int -> float
(** [propose_swap t a b] proposes exchanging the instances of nodes [a]
    and [b] ([a <> b]). Equivalent to
    [propose_move t ~node:a ~target:(instance_of t b)]. *)

val propose_relocate : t -> node:int -> target:int -> float
(** [propose_relocate t ~node ~target] proposes moving [node] onto the
    {e free} instance [target]. Raises [Invalid_argument] if [target] is
    occupied (use {!propose_swap} or {!propose_move}). *)

val commit : t -> unit
(** Accept the pending proposal: its cost becomes {!cost}. Raises
    [Invalid_argument] if no proposal is pending. *)

val abort : t -> unit
(** Discard the pending proposal and restore the committed state. Raises
    [Invalid_argument] if no proposal is pending. *)

val reset : t -> Types.plan -> unit
(** [reset t plan] re-seeds the kernel from a fresh plan (validated,
    copied) with a full resynchronization — what a restart-based search
    calls between restarts. Raises [Invalid_argument] while a proposal is
    pending. *)

val full_cost : t -> float
(** The current plan's cost recomputed from scratch ({!Cost.eval} for the
    standard objectives, the supplied [eval] for opaque kernels) without
    touching the incremental state — a cross-check oracle for tests and
    the bench equivalence gate. Raises [Invalid_argument] while a
    proposal is pending. *)

val proposals : t -> int
(** Proposals answered since creation or the last {!flush_counters}. *)

val fallback_evals : t -> int
(** Full evaluations paid since creation or the last {!flush_counters}:
    one per opaque proposal. *)

val path_relaxations : t -> int
(** Nodes re-relaxed by longest-path proposals since creation or the last
    {!flush_counters} (0 for other kernels). *)

val flush_counters : t -> unit
(** Publish the locally accumulated counts to the [delta.proposals],
    [delta.fallback_evals] and [delta.path_relaxations] {!Obs.Counter}s
    and zero the local accumulators. Call once per solve. *)
