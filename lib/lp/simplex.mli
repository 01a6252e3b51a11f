(** The LP vocabulary shared by the model builder, the kernel and branch
    and bound.

    Problems are  minimize cᵀx  subject to  Ax {≤,=,≥} b,  x ≥ 0. The one
    kernel that solves them is {!Sparse}; {!Model} builds its rows and
    {!Mip} branches on top. *)

type relation = Le | Ge | Eq

type status =
  | Optimal of float * float array  (** objective value and primal solution *)
  | Infeasible
  | Unbounded

exception Aborted
(** Raised out of an LP solve when its [should_stop] returns [true], when
    the [max_iters] pivot budget is exhausted, or when the model is past
    the kernel's row cap: the solve is abandoned with no usable status.
    All three are budget hits, not internal errors, so MIP callers keep
    their incumbent instead of crashing. *)
