(** LP/MIP model builder.

    A thin, typed layer over the {!Sparse} kernel: declare variables
    (optionally integer, with bounds), add linear constraints, set a
    minimization objective, and solve the LP relaxation. The {!Mip} module adds
    branch-and-bound on top. *)

type t
(** A mutable model under construction. *)

type var = private int
(** Variable handle, valid only for the model that created it. *)

val create : unit -> t

val add_var : t -> ?integer:bool -> ?lb:float -> ?ub:float -> ?obj:float -> string -> var
(** [add_var m name] declares a variable. Defaults: continuous, [lb = 0.],
    [ub = infinity], objective coefficient [0.]. Requires [0. <= lb <= ub]
    (the simplex kernel works on non-negative variables; general lower
    bounds are not needed by the deployment encodings). *)

val add_constraint : t -> (var * float) list -> Simplex.relation -> float -> unit
(** [add_constraint m terms rel rhs] adds [Σ coeff·var rel rhs]. Terms with
    repeated variables are summed. *)

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient. *)

val var_count : t -> int
val constraint_count : t -> int
val var_name : t -> var -> string
val is_integer : t -> var -> bool
val integer_vars : t -> var list

val relaxation_lp :
  ?extra:(var * Simplex.relation * float) list -> t -> float array * Sparse.row list
(** The LP relaxation as the kernel receives it: the objective per
    variable and the rows — base constraints in insertion order, then
    the declared bounds ([lb > 0] as a [Ge] row, finite [ub] as a [Le]
    row) in variable order, then [extra] oldest first (the list is read
    newest first, as {!Mip} prepends each branch). The order is stable
    under appends, which is what lets a basis of this LP warm-start an
    extension of it. Integrality is dropped. *)

val solve_relaxation_basis :
  ?should_stop:(unit -> bool) ->
  ?extra:(var * Simplex.relation * float) list ->
  ?warm_basis:int array ->
  t ->
  Simplex.status * int array
(** Solve {!relaxation_lp} on the {!Sparse} kernel and return the status
    with the final basis in stable column labels. The basis can be passed
    back as [warm_basis] to re-solve this model extended with more
    [extra] rows (each new branch prepended to [extra], as {!Mip} does).
    [should_stop] is forwarded to the kernel, which raises
    {!Simplex.Aborted} when it fires mid-solve, when its pivot budget
    runs out or when the model is past its row cap. *)

val solve_relaxation :
  ?should_stop:(unit -> bool) ->
  ?extra:(var * Simplex.relation * float) list ->
  t ->
  Simplex.status
(** [fst (solve_relaxation_basis ...)] from a cold start: the
    relaxation, with optional single-variable bound rows [var rel rhs]
    (the branching constraints {!Mip} adds). *)

val value : float array -> var -> float
(** Read a variable out of a solution vector returned by the solver. *)
