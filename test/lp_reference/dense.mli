(** Two-phase primal simplex on the dense tableau — the reference kernel.

    Solves the problem class of {!Lp.Sparse} (minimize cᵀx subject to
    Ax {≤,=,≥} b, x ≥ 0) by the textbook method: phase 1 minimizes the
    sum of artificial variables, phase 2 the true objective, Dantzig
    pricing with a per-phase switch to Bland's rule. It shares no code
    with the production kernel, which is what makes agreement between the
    two evidence. Each pivot sweeps all rows × columns: small models only. *)

val solve :
  ?max_iters:int ->
  ?should_stop:(unit -> bool) ->
  objective:float array ->
  rows:(float array * Lp.Simplex.relation * float) list ->
  unit ->
  Lp.Simplex.status
(** [solve ~objective ~rows ()] minimizes [objective]·x over x ≥ 0 subject
    to dense [rows], each [(coeffs, rel, rhs)] with [coeffs] as long as
    [objective]. [max_iters] (default [50_000]) bounds total pivots;
    exhausting it, like [should_stop] returning [true] (polled every 32
    pivots), raises {!Lp.Simplex.Aborted}. The Dantzig→Bland switch
    triggers after [max_iters / 2] pivots of the current phase. Raises
    [Invalid_argument] on dimension mismatches. *)

val solve_relaxation_basis :
  ?should_stop:(unit -> bool) ->
  ?extra:(Lp.Model.var * Lp.Simplex.relation * float) list ->
  ?warm_basis:int array ->
  Lp.Model.t ->
  Lp.Simplex.status * int array
(** {!Lp.Model.relaxation_lp}, densified and solved by {!solve}: the same
    LP, row for row, that {!Lp.Model.solve_relaxation_basis} hands the
    sparse kernel. The tableau keeps no stable-label basis, so
    [warm_basis] is ignored and the basis returned is empty. *)

val solve_relaxation :
  ?should_stop:(unit -> bool) ->
  ?extra:(Lp.Model.var * Lp.Simplex.relation * float) list ->
  Lp.Model.t ->
  Lp.Simplex.status
