(** The end-to-end deployment advisor (Sect. 2.2, Fig. 3).

    One call runs the paper's four-step tuning methodology against a
    simulated public cloud:

    + {b Allocate instances} — [(1 + over_allocation) · nodes] instances,
      in provider allocation order;
    + {b Get measurements} — interference-free RTT samples per ordered
      pair, reduced under the chosen latency metric (the staged scheme's
      time cost is accounted, not simulated probe by probe);
    + {b Search deployment} — any of the paper's strategies;
    + {b Terminate extra instances} — instances the plan leaves unused.

    The report compares against the default deployment (nodes mapped to
    instances in allocation order), which is what a tenant gets without
    ClouDiA. *)

type config = {
  graph : Graphs.Digraph.t;        (** application communication graph *)
  objective : Cost.objective;
  metric : Metrics.t;
  over_allocation : float;         (** e.g. [0.1] for the paper's 10 % *)
  samples_per_pair : int;          (** measurement effort per link *)
  strategy : Solver.t;
}

type on_missing =
  | Fail           (** refuse to advise on a partial matrix ([LAT007]) *)
  | Impute         (** fill unsampled pairs conservatively
                       ({!Netmeasure.Completion.complete}, warns [LAT008]) *)
  | Drop_instance  (** terminate instances without full coverage
                       ({!Netmeasure.Completion.drop_uncovered}, warns
                       [LAT009]) — natural with over-allocation: an
                       unmeasurable instance is terminated like an unused
                       one *)
(** What to do when fault-injected measurement leaves ordered pairs
    unsampled. Irrelevant (all pairs covered by construction) without a
    fault plan. *)

val on_missing_to_string : on_missing -> string

type telemetry = {
  strategy_name : string;          (** {!Solver.name} of the config *)
  solver : Solver.stats;           (** kernel effort of the strategy run *)
  stop_reason : Solver.stop_reason;
      (** why the search stopped; [Proven_optimal] means optimal under the
          strategy's own (possibly rounded) costs, or, for a portfolio,
          proved by a member on exact costs *)
  incumbent_trace : (float * float) list;
      (** anytime curve: (elapsed seconds, cost) at each improvement,
          oldest first; empty for the greedy strategies *)
  winner : string option;          (** portfolio only: winning member name *)
  members : Solver.member list;    (** portfolio only: per-member telemetry *)
  counters : (string * int) list;
      (** {!Obs.Counter} deltas across the search step, sorted by name;
          zero deltas omitted *)
}

type solved = {
  problem : Types.problem;         (** the gated matrix + communication graph *)
  plan : Types.plan;
  default_plan : Types.plan;       (** node [i] on instance [i] *)
  cost : float;                    (** the plan's cost under the objective *)
  default_cost : float;            (** the default plan's cost *)
  search_seconds : float;          (** wall-clock spent in the strategy *)
  unused : int list;               (** instances the plan leaves empty,
                                       ascending: the ones to terminate *)
  telemetry : telemetry;
  diagnostics : Lint.Diagnostic.t list;
      (** the findings passed in plus the gate's, none of them blocking *)
}
(** What the post-measurement step ({!solve}) returns. *)

type report = {
  env : Cloudsim.Env.t;            (** the allocation (before termination) *)
  problem : Types.problem;         (** measured costs + communication graph *)
  plan : Types.plan;
  default_plan : Types.plan;
  cost : float;                    (** optimized deployment cost (measured) *)
  default_cost : float;            (** default deployment cost (measured) *)
  improvement_pct : float;         (** relative cost reduction vs default *)
  measurement_minutes : float;     (** staged-scheme time budget charged *)
  search_seconds : float;          (** wall-clock spent searching *)
  terminated : int list;           (** instances shut down, in original
                                       allocation numbering: the ones the
                                       plan leaves unused plus any dropped
                                       for lack of coverage; ascending *)
  kept : int array;                (** original index of each instance the
                                       problem ranges over — the identity
                                       unless [Drop_instance] pruned some *)
  dropped : int list;              (** instances dropped for lack of
                                       measurement coverage (ascending);
                                       empty except under [Drop_instance] *)
  measurement_coverage : float;    (** fraction of ordered pairs with ≥ 1
                                       surviving sample; [1.0] without
                                       faults *)
  telemetry : telemetry;           (** what the search actually did *)
  diagnostics : Lint.Diagnostic.t list;
      (** every lint finding from the pre-solve gate: the warnings and
          infos a non-strict run tolerated (errors never reach a report —
          they raise {!Lint.Diagnostic.Failed} first) *)
}

val gate :
  full:bool -> Graphs.Digraph.t option -> Lat_matrix.t option -> Cost.objective
  -> Solver.t option -> Lint.Diagnostic.t list
(** The pre-solve gate: every {!Lint.Instance} finding for an instance.
    [plan], [lint], [advise] and the daemon all check through it, and
    each checks a matrix once: [plan] and [advise] in {!solve}, [lint]
    directly, the daemon's reader before it queues a job.

    - matrix checks [LAT002]–[LAT007] in place
      ({!Lint.Instance.check_lat}; an off-diagonal NaN is an unsampled
      pair, [LAT007]);
    - graph checks [GRF004]–[GRF008], acyclicity under the longest-path
      objective, with the pool taken from the matrix;
    - config checks [CFG001]–[CFG003] on the strategy's time limit and
      portfolio size.

    An absent graph, matrix or strategy skips its checks. [~full:false] skips the
    O(n³) [LAT006] triangle scan, an info finding that never blocks, so a
    path that only blocks on errors pays O(n² + |E|). Raises
    [Invalid_argument] with {!Solver.check_supports}'s message when the
    strategy cannot handle the objective. *)

val run :
  ?strict_lint:bool -> ?faults:Cloudsim.Faults.t -> ?on_missing:on_missing
  -> Prng.t -> Cloudsim.Provider.t -> config -> report
(** Gates the configuration and graph before allocation, then runs
    {!solve} ([~full:true]) on the measured matrix. Raises
    [Lint.Diagnostic.Failed] when {!gate} finds an error in the
    configuration and graph (together with the over-allocation and
    sampling checks [CFG004]/[CFG005]), or in the measured cost matrix —
    with [~strict_lint:true], warnings block too. Raises
    [Invalid_argument] when the strategy cannot handle the objective
    ({!Solver.supports}). The
    allocate / measure / search steps run under {!Obs.Span}s of those
    names (nested in an ["advise"] root), so [--trace] output shows where
    the tuning budget went.

    [faults] (default {!Cloudsim.Faults.none}) injects the fault plan
    into the measurement step, which then runs the staged scheme probe by
    probe — losses, retries, timeouts — instead of the idealized
    estimator, charges the simulated clock it consumed as
    [measurement_minutes], and resolves any unsampled pairs per
    [on_missing] (default [Fail]). Fault-injected measurement supports
    the [Mean] metric only (raises [Invalid_argument] otherwise): the
    probe schemes keep running sums, not sample distributions. *)

val solve :
  ?strict_lint:bool -> ?diagnostics:Lint.Diagnostic.t list -> full:bool -> Prng.t -> Solver.t
  -> Cost.objective -> Graphs.Digraph.t -> Lat_matrix.t -> solved
(** Everything after measurement, for a matrix from any source: {!gate}
    (with [full] as there), then {!Lint.Diagnostic.check} on
    [diagnostics] (default [[]], findings made earlier, e.g. [LAT008])
    together with the gate's findings — raising
    [Lint.Diagnostic.Failed] on an error or, with [~strict_lint:true]
    (default [false]), a warning — then {!Types.of_matrix}, the strategy
    under an {!Obs.Span} named ["search"] with its telemetry and counter
    deltas, {!Types.validate} on the plan, and the costs of the plan and
    the default plan. {!run} calls it on the measured matrix and
    [cloudia plan] on a loaded one. Raises [Invalid_argument] with
    {!Solver.check_supports}'s message when the strategy cannot handle
    the objective. *)
