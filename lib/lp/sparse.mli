(** Sparse revised simplex: the LP kernel behind every relaxation.

    Solves  minimize cᵀx  subject to  Ax {≤,=,≥} b,  x ≥ 0, keeping the
    constraint matrix in compressed sparse column form and the basis
    inverse as a product-form eta file with periodic refactorization, so
    memory and pivot cost scale with the nonzero count instead of rows ×
    columns. {!Model.solve_relaxation_basis} and {!Mip} reach it for
    every LP they solve.

    Basic variables are identified by {e stable column labels} that survive
    row appends: structural variable [j] is column [j]; the slack/surplus
    of row [r] is [nvars + 2r]; the artificial of row [r] is
    [nvars + 2r + 1]. A basis returned for a model remains valid for any
    model that extends the row list, which is what lets branch and bound
    warm-start each child from its parent's optimal basis: the appended
    branch rows enter on their own slacks and a handful of dual simplex
    pivots restore primal feasibility (or prove the child infeasible).

    Under tracing ({!Obs.Sink.enabled}) each solve records per-phase
    latency histograms — [lp.btran_ns], [lp.pricing_ns], [lp.ftran_ns],
    [lp.ratio_ns], [lp.update_ns], [lp.refactor_ns] — and the whole
    iteration of each pivot as [lp.pivot_ns]; untraced solves read no
    clock. *)

type row = int array * float array * Simplex.relation * float
(** One constraint in sparse form: [(vars, coeffs, relation, rhs)] with
    [vars] and [coeffs] parallel arrays. *)

type result = {
  status : Simplex.status;
  basis : int array;
      (** Stable column label basic in each row, reusable as [warm_basis]
          for a model whose rows extend this one's. Meaningful for every
          status (for [Infeasible]/[Unbounded] it is the last basis
          visited). *)
  iterations : int;  (** Simplex pivots performed (primal + dual). *)
}

val solve :
  ?max_iters:int ->
  ?should_stop:(unit -> bool) ->
  ?warm_basis:int array ->
  objective:float array ->
  rows:row list ->
  unit ->
  result
(** [solve ~objective ~rows ()] minimizes [objective]·x over x ≥ 0. Without
    [warm_basis] it runs the classic two phases from the all-slack/
    artificial basis. With [warm_basis] (labels from a previous [result]
    on a row-prefix of this model; shorter bases are extended with the new
    rows' own slacks) it refactorizes that basis and repairs primal
    feasibility with dual simplex pivots — dual unboundedness proves
    infeasibility — falling back to a cold start if the warm basis turns
    out singular or cannot certify a solution. [max_iters] (default
    [50_000]) bounds total pivots; exhausting it, like [should_stop]
    returning [true] (polled before every pivot) or a model of more than
    500,000 rows, raises {!Simplex.Aborted}. Pricing is Dantzig with a
    per-phase switch to Bland's rule after [max_iters / 2] in-phase
    pivots. Raises [Invalid_argument] on malformed rows. *)
