type relation = Le | Ge | Eq

type status =
  | Optimal of float * float array
  | Infeasible
  | Unbounded

exception Aborted
