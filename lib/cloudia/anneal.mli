(** Simulated-annealing deployment search.

    A lightweight anytime solver that sits between the paper's randomized
    baselines (R1/R2, Sect. 4.3.1) and the exact solvers: local search over
    deployment plans with two move kinds — {e swap} the instances of two
    nodes, and {e relocate} a node onto an unused instance (the move that
    exploits over-allocation) — under a geometric cooling schedule.
    Works for any deployment cost function, including the weighted and
    bandwidth objectives ({!Weighted}, {!Bandwidth}) that the exact
    encodings need special-casing for.

    Moves are evaluated through a {!Delta_cost} kernel: for the two
    standard objectives ({!solve_objective}) each proposal costs
    O(deg(node)) — or an affected-suffix DAG re-relaxation for longest
    path — instead of a full {!Cost.eval}; for an arbitrary [eval]
    ({!solve}) the kernel transparently falls back to one full
    evaluation per move. Both paths draw identical random streams and
    accept identical moves, so a fixed seed yields bit-identical results
    whichever evaluator runs. *)

type options = {
  time_limit : float;        (** wall-clock budget, seconds *)
  initial_temperature : float;
      (** starting acceptance temperature, in cost units; a value around
          the cost spread of random plans works well *)
  cooling : float;           (** geometric factor per step, e.g. 0.9995 *)
  moves_per_temperature : int;
  restarts : int;            (** independent annealing runs; best kept *)
  max_moves : int option;
      (** total move budget across all restarts; [None] = unlimited. A
          finite budget makes a run bit-reproducible independent of the
          wall clock (provided [time_limit] is generous enough not to fire
          first), which is what the deterministic portfolio and the
          CI-safe tests rely on. *)
}

val default_options : options
(** 2 s, T₀ = 0.5, cooling 0.999, 50 moves per temperature, 3 restarts,
    no move cap. *)

type result = {
  plan : Types.plan;
  cost : float;
  moves_tried : int;
  moves_accepted : int;
}

val solve :
  ?options:options ->
  ?stop:(unit -> bool) ->
  ?init:Types.plan ->
  ?on_improve:(Types.plan -> float -> unit) ->
  Prng.t ->
  eval:(Types.plan -> float) ->
  Types.problem ->
  result
(** [solve rng ~eval problem] minimizes an arbitrary plan cost [eval]
    (e.g. [Cost.eval objective problem]). The returned plan is always a
    valid injection.

    [init] warm-starts the cross-restart incumbent with a known-good plan
    (validated, copied) — e.g. the previous incumbent for the same matrix
    fingerprint in the serving cache. The restarts themselves still begin
    from fresh random plans; without [init] the random draw order is
    unchanged.

    [stop] is polled between temperature steps and between restarts; when
    it returns [true] the current best is returned immediately.
    [on_improve] fires for the initial plan and for every strict
    improvement of the cross-restart best; the plan passed to it is the
    solver's working array — copy it if you retain it. *)

val solve_objective :
  ?options:options ->
  ?stop:(unit -> bool) ->
  ?init:Types.plan ->
  ?ranks:Lat_matrix.Ranks.t ->
  ?on_improve:(Types.plan -> float -> unit) ->
  Prng.t -> Cost.objective -> Types.problem -> result
(** Convenience wrapper for the two standard objectives. [ranks] shares a
    precomputed {!Lat_matrix.Ranks} table (fingerprint-keyed cache hit)
    with the kernel; see {!Delta_cost.create}. *)
