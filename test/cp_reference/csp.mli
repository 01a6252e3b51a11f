(** Finite-domain CSPs with the all-constraints propagation loop — the
    reference for {!Cp.Csp}.

    Same model and same operations as {!Cp.Csp}. {!propagate} re-runs
    every constraint, in posting order reversed, until a full pass
    changes nothing; the transpose of each forbidden matrix is computed
    per constraint. Binary AC and Régin's GAC are monotone, so this loop
    and the production queue reach the same fixpoint and fail on the
    same inputs. *)

type t

val create : nvars:int -> nvalues:int -> t
val domain : t -> int -> Cp.Domain.t
val restrict : t -> var:int -> allowed:(int -> bool) -> unit
val add_alldifferent : t -> unit
val add_forbidden_pairs : t -> x:int -> y:int -> bad:Cp.Domain.t array -> unit
val propagate : t -> Cp.Csp.propagation
val reset : t -> unit
val save : t -> Cp.Domain.t array
val restore : t -> Cp.Domain.t array -> unit
