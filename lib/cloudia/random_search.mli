(** Randomized deployment search (Sects. 4.3.1 and 4.5.1).

    Generating random injections and keeping the best is "computationally
    cheaper and easier to parallelize" than systematic search; the paper's
    R1 fixes the trial count at 1,000 and R2 spends the same wall-clock
    budget as the CP/MIP solver.

    The [_eval] variants take an arbitrary plan-cost function, which is how
    the weighted and bandwidth objectives reuse this solver. *)

val r1_eval :
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  Prng.t -> eval:(Types.plan -> float) -> Types.problem -> trials:int ->
  Types.plan * float
(** Best of [trials] uniformly random plans under an arbitrary cost.
    [stop] is polled between trials and ends the search early with the best
    plan so far (cooperative cancellation inside a portfolio);
    [on_improve] fires for the first plan and every strict improvement. *)

val r2_eval :
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  ?now:(unit -> float) ->
  Prng.t -> eval:(Types.plan -> float) -> Types.problem -> time_limit:float ->
  Types.plan * float * int
(** Random plans until [time_limit] seconds elapse; returns the best plan,
    its cost, and the number of plans tried. [stop]/[on_improve] as in
    {!r1_eval}. [now] injects the clock (default the monotonic
    [Obs.Clock.now_s]) so tests can drive the budget with a deterministic
    fake clock instead of depending on real scheduler behaviour. *)

val r1 :
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  Prng.t -> Cost.objective -> Types.problem -> trials:int -> Types.plan * float
(** Best of [trials] random plans (the paper's R1 uses 1,000). *)

val r2 :
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  ?now:(unit -> float) ->
  Prng.t -> Cost.objective -> Types.problem -> time_limit:float ->
  Types.plan * float * int
(** Time-budgeted variant of {!r1}. *)

val best_of : Prng.t -> Cost.objective -> Types.problem -> int -> Types.plan
(** Convenience used to bootstrap the exact solvers: the paper seeds its
    search with the best of 10 random deployment plans (Sect. 6.3.1). *)

val best_of_eval : Prng.t -> eval:(Types.plan -> float) -> Types.problem -> int -> Types.plan
(** Arbitrary-cost variant of {!best_of}. *)

val r2_parallel :
  ?domains:int ->
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  Prng.t ->
  Cost.objective ->
  Types.problem ->
  time_limit:float ->
  Types.plan * float * int
(** Multicore R2: "since generating deployments is computationally cheaper
    and easier to parallelize, it is possible to explore a larger portion
    of the search space given the same amount of time" (Sect. 4.3.1) — the
    paper's R2 runs "in parallel using the same amount of wall-clock time
    as well as the same hardware given to the CP or MIP solvers". Runs
    [domains] (default 4, clamped to [Domain.recommended_domain_count ()])
    independent PRNG-split streams for [time_limit] seconds, one on the
    calling domain and one on each spawned domain; returns the best plan,
    its cost, and the total plans tried across domains (per-domain counts
    are merged atomically into the [random_search.trials] counter).

    [stop] is polled from every domain between trials and must be
    thread-safe (an atomic flag or pure deadline check) — it cancels the
    whole gang cooperatively, as the portfolio requires. [on_improve]
    fires, serialized under a mutex and with a private copy of the plan,
    for each strict improvement of the {e cross-domain} best; the gang
    feeds a single ["random.parallel"] incumbent stream. *)

val r2_descent :
  ?stop:(unit -> bool) ->
  ?on_improve:(Types.plan -> float -> unit) ->
  ?now:(unit -> float) ->
  Prng.t ->
  Cost.objective ->
  Types.problem ->
  time_limit:float ->
  Types.plan * float * int
(** R2 with local descent: random restarts, each refined to a local
    optimum by first-improvement descent over every swap/relocate move,
    evaluated incrementally through a {!Delta_cost} kernel (O(deg) per
    proposal instead of a full {!Cost.eval}). Runs until [time_limit]
    seconds elapse or [stop] fires; returns the best plan, its cost, and
    the number of restarts begun. [on_improve]/[now] as in {!r2_eval};
    improvements feed a ["random.descent"] incumbent stream and restarts
    the [random_search.descents] counter. The returned plan is a local
    optimum whenever the budget outlasted the final descent. *)
