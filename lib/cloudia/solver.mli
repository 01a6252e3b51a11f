(** Every deployment search strategy behind one interface (Sect. 2.2
    step 3, Sect. 6.3).

    The paper treats CP, MIP, the greedy heuristics G1/G2 and the
    randomized baselines R1/R2 as interchangeable strategies for one
    problem. This module is the only list of them: the advisor, the
    command line and the daemon all name a {!t} and call {!run}.

    {b Portfolio.} [Portfolio] races several strategies concurrently —
    one OCaml domain per member — under one wall-clock deadline, the way
    a deployment advisor would spend a fixed tuning budget. Every member
    publishes each improvement into a mutex-protected shared incumbent;
    the CP member also {e adopts} that incumbent between threshold
    iterations, so a heuristic's lucky plan tightens the threshold the
    exact solver works on. Workers cancel cooperatively as soon as one
    proves optimality under exact costs, or when the deadline fires.
    The portfolio draws one {!Prng.split} per member, in member order,
    from the caller's generator: a portfolio whose members all run to a
    fixed work bound (greedy, R1, annealing with [max_moves]) returns
    bit-identical plans for a fixed seed however the domains interleave. *)

type t =
  | Greedy_g1
  | Greedy_g2
  | Random_r1 of int              (** best of N random plans *)
  | Random_r2 of float            (** random plans for a time budget (s) *)
  | Descent of float
      (** R2 with local descent for a time budget (s): random restarts
          refined to swap/relocate local optima through the incremental
          {!Delta_cost} kernel (see {!Random_search.r2_descent}) *)
  | Anneal of Anneal.options      (** simulated annealing (either objective) *)
  | Cp of Cp_solver.options       (** longest link only *)
  | Mip of Mip_solver.options
  | Portfolio of portfolio        (** members racing in parallel domains *)

and portfolio = {
  members : t list;               (** one domain each; no nested portfolio *)
  time_limit : float;             (** global wall-clock deadline, seconds;
                                      every member's own budget is replaced
                                      by what remains of it *)
  share_incumbent : bool;
      (** when [true] the CP member starts each threshold iteration from
          the best plan any member has published; when [false] members
          run independently and only their final results are compared *)
}

val name : t -> string
(** ["G1"], ["R1(1000)"], ["R2(10.0s)"], ["SA"], ["CP"], ["Portfolio(4)"], …
    Portfolio members are reported without the budget their constructor
    carries (["R2"], ["R2D"]): they race the portfolio's clock. *)

val supports : t -> Cost.objective -> bool
(** [false] exactly when the strategy, or a portfolio member, is CP and
    the objective is longest path (Sect. 4.4: the iterated-SIP scheme
    needs the longest-link structure). *)

val check_supports : t -> Cost.objective -> unit
(** Raise [Invalid_argument] naming the first strategy {!supports}
    rejects — the message {!run} raises for it. *)

val time_limit : t -> float option
(** The wall-clock budget the options carry; [None] for the strategies
    bounded by work alone (greedy, R1). *)

val uses_init : t -> bool
(** Whether {!run} seeds this strategy from its [init] plan (CP and
    annealing). *)

val portfolio : objective:Cost.objective -> domains:int -> time_limit:float -> t
(** A balanced roster of [domains] members sharing the incumbent: an
    exact anytime solver first (CP with exact costs for longest link, MIP
    for longest path — exact so that a proof cancels the whole
    portfolio), then annealing, descent, R2 and G2, padding with rotating
    annealing/descent/R2 members beyond five. Raises [Invalid_argument]
    unless [domains >= 1]. *)

type stop_reason =
  | Proven_optimal  (** the solver proved its plan optimal *)
  | Finished
      (** the solver used up a work bound fixed by its arguments: greedy,
          R1's trials, or annealing's [max_moves] *)
  | Budget          (** stopped on the clock, a deadline or [stop] *)
(** CP and MIP report [Proven_optimal] (under their own, possibly
    clustered, costs) or [Budget]. A portfolio is [Proven_optimal] when a
    member proved optimality under exact costs, [Finished] when no member
    stopped on [Budget], and [Budget] otherwise. A result that is not
    [Budget] is a pure function of the arguments, which is what the
    daemon's result memo relies on. *)

type stats =
  | No_stats                       (** greedy and portfolio *)
  | Cp_stats of { iterations : int; nodes : int; failures : int; propagations : int }
      (** feasibility iterations, plus the CP kernel's search effort
          summed over every dive *)
  | Mip_stats of { nodes_explored : int; nodes_pruned : int }
  | Anneal_stats of { moves_tried : int; moves_accepted : int }
  | Random_stats of { trials : int }  (** R1/R2 plans, or descent restarts *)

type member = {
  member_name : string;            (** {!name} of the member *)
  member_cost : float;             (** the member's own best true cost *)
  time_to_best : float;            (** seconds until its last improvement *)
  seconds : float;                 (** wall clock the member spent *)
  iterations : int;                (** effort: trials, restarts, moves
                                       tried, CP iterations or B&B nodes;
                                       1 for greedy *)
  proved_optimal : bool;           (** under its own (possibly rounded) costs *)
}

type outcome = {
  plan : Types.plan;
  cost : float;                    (** true cost of [plan] *)
  trace : (float * float) list;
      (** anytime curve: (elapsed seconds, true cost) at each improvement,
          oldest first; empty for greedy. A portfolio merges every
          member's improvements into prefix minima. *)
  stats : stats;
  members : member list;           (** portfolio only, member order *)
  winner : int option;
      (** portfolio only: index into [members] of the cheapest final
          plan, ties to the lowest index *)
  stop_reason : stop_reason;
}

val run :
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  ?peek:(unit -> Types.plan option) ->
  ?init:Types.plan ->
  ?clustering:(unit -> Clustering.t) ->
  ?ranks:(unit -> Lat_matrix.Ranks.t) ->
  ?time_limit:float ->
  t ->
  Prng.t ->
  Cost.objective ->
  Types.problem ->
  outcome
(** Runs one strategy on a problem. Raises [Invalid_argument] before any
    search when {!supports} is [false], or for a portfolio with no
    members, a nested portfolio or a non-positive [time_limit].

    - [stop] is polled by every anytime solver; [true] ends the run with
      the incumbent (and [Budget]). A portfolio polls it from every
      member's domain, so it must be thread-safe.
    - [on_improve] fires with (plan, true cost) on improvements; the plan
      may be the solver's working array — copy it to keep it.
    - [peek] exposes a better plan found elsewhere (CP only).
    - [init] warm-starts CP and annealing (see {!uses_init}).
    - [clustering] and [ranks] supply precomputed tables for this
      problem's matrix. CP calls [clustering] (and then ignores
      [options.clusters]); annealing calls [ranks] under the longest-link
      objective. No other strategy calls either.
    - [time_limit] replaces the budget in the options, clamped to at
      least 1 ms.

    A portfolio forwards [stop] and calls [on_improve] (serialized) for
    each improvement of its shared incumbent; it ignores [peek], [init],
    [clustering] and [ranks]. *)
