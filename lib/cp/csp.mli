(** Finite-domain constraint satisfaction problems.

    The model matches the paper's CP encoding of the longest-link node
    deployment problem (Sect. 4.2):

    - one integer variable [u_i] per application node, ranging over
      instances (values [0 .. nvalues-1]);
    - one global [alldifferent] over all variables (injective deployment);
    - binary "forbidden pair" constraints
      [(u_i, u_i') <> (j, j')] for every communication edge [(i, i')] and
      every instance pair with link cost above the threshold [c].

    Propagation is AC for the binary constraints (bitset support tests) and
    Régin's matching-based filtering for [alldifferent], scheduled by a
    constraint queue so that a propagation does work in proportion to
    what changed since the last one.

    A CSP owns all of its propagation state (queue, watch lists, matching,
    transposed matrices, snapshot slots); nothing is shared between CSPs,
    so separate CSPs may be solved on separate domains at once. *)

type t
(** A CSP instance: mutable domains plus a fixed set of propagators. *)

type propagation = Progress | Fixpoint | Failure

val create : nvars:int -> nvalues:int -> t
(** Fresh problem with every variable ranging over all values. Requires
    [0 < nvars <= nvalues] (injective problems only). *)

val nvars : t -> int
val nvalues : t -> int

val domain : t -> int -> Domain.t
(** The live domain of a variable (mutating it directly is allowed before
    search starts; during search use the solver's branching). *)

val restrict : t -> var:int -> allowed:(int -> bool) -> unit
(** Remove from [var]'s domain every value failing [allowed] — used for
    root-level compatibility filtering (degree labeling). *)

val add_alldifferent : t -> unit
(** Add the global injectivity constraint over all variables. *)

val add_forbidden_pairs : t -> x:int -> y:int -> bad:Domain.t array -> unit
(** [add_forbidden_pairs t ~x ~y ~bad] forbids simultaneous assignment
    [x = j ∧ y ∈ bad.(j)]. [bad] has one entry per value [j] of [x]; each
    entry is a set over the value universe. The transposed direction is
    derived internally, so a single call gives arc consistency both ways.
    The [bad] array is shared, not copied: callers may reuse one matrix
    across many edge constraints (the paper's encoding does — the forbidden
    set depends only on the link-cost threshold), and the CSP then
    transposes it once, for as long as consecutive calls pass the same
    (physically equal) matrix. Raises [Invalid_argument] if a variable is
    out of range, [x = y], or [bad] is not [nvalues × nvalues]. *)

val propagate : t -> propagation
(** Run the propagators to their common fixpoint. [Failure] means some
    domain emptied or no injective assignment of the domains exists;
    [Progress] means some domain narrowed; [Fixpoint] that none did.

    Queue-driven: a variable is dirty when its domain differs from its
    state at the last successful fixpoint (so direct mutation through
    {!domain}, {!restore} or backtracking is noticed), and every
    constraint runs when constraints were added or {!reset}. Binary
    constraints on dirty variables are queued (each at most once) and
    re-queued when a neighbour narrows; the queue drains first, and
    Régin's alldifferent runs only when some domain changed since its last
    run. Binary AC and Régin's GAC are monotone and idempotent, so this
    order reaches the same fixpoint, and fails on the same inputs, as
    re-running every constraint until nothing changes (a test checks it
    against that loop).

    The alldifferent propagator is incremental: it keeps the last maximum
    matching inside [t], revalidates it against the live domains, and
    re-augments only the variables that lost their match — the filtered
    edge set is matching-invariant, so prunings are identical to a
    from-scratch run. Its graph buffers also live in [t]: a propagation
    allocates nothing. *)

val reset : t -> unit
(** Refill every domain to the full value range and drop all binary
    (forbidden-pair) constraints, keeping [alldifferent] and its warm
    matching state. This is what lets a threshold-iterating solver reuse
    one CSP across iterations instead of rebuilding it: after [reset],
    re-apply the root restrictions and post the new iteration's forbidden
    matrices. *)

val save : t -> Domain.t array
(** Snapshot all domains (for search backtracking). *)

val restore : t -> Domain.t array -> unit
(** Restore a snapshot taken by {!save}. *)

val save_level : t -> int -> unit
(** [save_level t level] copies the live domains into the CSP's own
    snapshot slot [level] ([>= 0]), overwriting what it held. Slots are
    allocated on first use and kept, so a depth-first search that saves
    at its depth allocates nothing once it has been that deep — on this
    CSP, across searches. *)

val restore_level : t -> int -> unit
(** Restore the domains last saved by {!save_level} at [level]. *)

val assignment : t -> int array option
(** If every domain is a singleton, the assignment; otherwise [None]. *)
