(** Deployment cost functions (Sect. 3.3, Classes 1 and 2).

    Longest link models barrier-synchronized HPC applications: one slow
    link delays every tick. Longest path models service-call trees: costs
    along a causal chain of messages add up. *)

type objective = Longest_link | Longest_path

val objective_to_string : objective -> string
(** ["longest-link"] or ["longest-path"]. *)

val objective_of_string : string -> objective option
(** Accepts {!objective_to_string}'s names and the short forms ["ll"] and
    ["lp"] (case-sensitive). *)

val longest_link : Types.problem -> Types.plan -> float
(** [max over communication edges (i,i') of costs(plan i)(plan i')].
    Zero for an edgeless graph. [nan] if the plan routes any edge over an
    unsampled ([nan]) pair — a partial matrix poisons the evaluation
    rather than being silently skipped by the max. *)

val longest_link_witness : Types.problem -> Types.plan -> float * (int * int) option
(** The longest link's cost and the communication edge achieving it.
    Any non-empty edge set yields a witness (ties broken by edge order),
    including all-zero cost matrices; [(0., None)] only for an edgeless
    graph. If any edge lands on an unsampled pair the result is [(nan,
    Some e)] where [e] is the first such edge — the witness names the
    poisoning link. *)

val longest_path : Types.problem -> Types.plan -> float
(** Maximum over directed paths of the summed link costs under the plan.
    [nan] if any communication edge lands on an unsampled pair. Requires
    an acyclic communication graph (raises [Invalid_argument] otherwise,
    as in Definition Class 2). *)

val eval : objective -> Types.problem -> Types.plan -> float

val improvement : default:float -> optimized:float -> float
(** Relative reduction in percent: [(default - optimized) / default · 100].
    Sign convention: positive when the optimized plan is {e cheaper} than
    the default, negative when it is worse, and [0.] whenever
    [default <= 0.] (a zero baseline admits no relative improvement, and
    a negative one would flip the sign of the ratio). *)
