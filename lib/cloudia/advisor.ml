type config = {
  graph : Graphs.Digraph.t;
  objective : Cost.objective;
  metric : Metrics.t;
  over_allocation : float;
  samples_per_pair : int;
  strategy : Solver.t;
}

type telemetry = {
  strategy_name : string;
  solver : Solver.stats;
  stop_reason : Solver.stop_reason;
  incumbent_trace : (float * float) list;
  winner : string option;
  members : Solver.member list;
  counters : (string * int) list;
}

type on_missing = Fail | Impute | Drop_instance

let on_missing_to_string = function
  | Fail -> "fail"
  | Impute -> "impute"
  | Drop_instance -> "drop"

type solved = {
  problem : Types.problem;
  plan : Types.plan;
  default_plan : Types.plan;
  cost : float;
  default_cost : float;
  search_seconds : float;
  unused : int list;
  telemetry : telemetry;
  diagnostics : Lint.Diagnostic.t list;
}

type report = {
  env : Cloudsim.Env.t;
  problem : Types.problem;
  plan : Types.plan;
  default_plan : Types.plan;
  cost : float;
  default_cost : float;
  improvement_pct : float;
  measurement_minutes : float;
  search_seconds : float;
  terminated : int list;
  kept : int array;
  dropped : int list;
  measurement_coverage : float;
  telemetry : telemetry;
  diagnostics : Lint.Diagnostic.t list;
}

let strategy_domains = function
  | Solver.Portfolio p -> Some (List.length p.Solver.members)
  | _ -> None

let gate ~full graph lat objective strategy =
  Option.iter (fun s -> Solver.check_supports s objective) strategy;
  let pool = Option.map Lat_matrix.dim lat in
  (match lat with
   | None -> []
   | Some lat ->
       Lint.Instance.check_lat ?max_triangle_n:(if full then None else Some 0) lat)
  @ (match graph with
     | None -> []
     | Some graph ->
         let requires_dag =
           match objective with Cost.Longest_path -> true | Cost.Longest_link -> false
         in
         Lint.Instance.check_graph ?pool ~requires_dag graph)
  @
  match strategy with
  | None -> []
  | Some s ->
      Lint.Instance.check_config ?time_limit:(Solver.time_limit s)
        ?domains:(strategy_domains s) ?pool ()

let solve ?(strict_lint = false) ?(diagnostics = []) ~full rng strategy objective graph
    lat =
  let diagnostics = diagnostics @ gate ~full (Some graph) (Some lat) objective (Some strategy) in
  Lint.Diagnostic.check ~strict:strict_lint diagnostics;
  let problem = Types.of_matrix ~graph lat in
  let started = Obs.Clock.now_s () in
  let o, counters =
    Obs.Resource.with_ "search" @@ fun () ->
    let before = Obs.Counter.snapshot () in
    let o = Solver.run strategy rng objective problem in
    (o, Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()))
  in
  let search_seconds = Obs.Clock.now_s () -. started in
  let plan = o.Solver.plan in
  Types.validate problem plan;
  let default_plan = Types.identity_plan problem in
  {
    problem;
    plan;
    default_plan;
    cost = Cost.eval objective problem plan;
    default_cost = Cost.eval objective problem default_plan;
    search_seconds;
    unused = Types.unused_instances problem plan;
    telemetry =
      {
        strategy_name = Solver.name strategy;
        solver = o.Solver.stats;
        stop_reason = o.Solver.stop_reason;
        incumbent_trace = o.Solver.trace;
        winner =
          Option.map (fun i -> (List.nth o.Solver.members i).Solver.member_name) o.Solver.winner;
        members = o.Solver.members;
        counters;
      };
    diagnostics;
  }

(* Staged-scheme effort matching [samples_per_pair]: each matched pair
   exchanges [ks] probes per stage, and a pair is matched in one of the
   two orders once per ~(n-1) stages on average. A floor of six rounds
   keeps the miss probability per ordered pair below e⁻⁶ even when one
   round would already deliver the requested samples. *)
let staged_effort ~samples_per_pair ~n =
  let ks = max 1 (min 10 samples_per_pair) in
  let rounds =
    max 6 (int_of_float (Float.ceil (float_of_int samples_per_pair /. float_of_int ks)))
  in
  (ks, rounds * (max 1 (n - 1)))

let run ?(strict_lint = false) ?(faults = Cloudsim.Faults.none)
    ?(on_missing = Fail) rng provider config =
  (* Pre-allocation gate: everything checkable before spending money on
     instances. Errors (and, under --strict-lint, warnings) fail fast. *)
  Lint.Diagnostic.check ~strict:strict_lint
    (gate ~full:true (Some config.graph) None config.objective (Some config.strategy)
    @ Lint.Instance.check_config ~over_allocation:config.over_allocation
        ~samples_per_pair:config.samples_per_pair ());
  let faulted = not (Cloudsim.Faults.is_none faults) in
  if faulted && config.metric <> Metrics.Mean then
    invalid_arg
      "Advisor: fault-injected measurement estimates mean latency only (the \
       probe schemes keep running sums, not sample distributions)";
  let nodes = Graphs.Digraph.n config.graph in
  Obs.Resource.with_ "advise" @@ fun () ->
  (* Step 1: allocate with over-allocation. *)
  let count =
    int_of_float (Float.ceil (float_of_int nodes *. (1.0 +. config.over_allocation)))
  in
  let env =
    Obs.Resource.with_ "allocate" @@ fun () -> Cloudsim.Env.allocate rng provider ~count
  in
  (* Step 2: measure. Without faults the per-pair sampling is what the
     staged scheme of Sect. 5 would collect and we charge its nominal
     time budget. With faults we run the staged scheme probe by probe —
     losses, retries and timeouts included — and charge the simulated
     clock it actually consumed. *)
  let costs, measurement_minutes, measurement_coverage, kept, dropped, partial_diags =
    Obs.Resource.with_ "measure" @@ fun () ->
    if not faulted then
      let costs =
        Metrics.estimate rng env config.metric ~samples_per_pair:config.samples_per_pair
      in
      let minutes = Netmeasure.Schemes.staged_time_for ~n:count ~reference_minutes:5.0 in
      (costs, minutes, 1.0, Array.init count (fun i -> i), [], [])
    else begin
      let fenv = Cloudsim.Env.with_faults env faults in
      let ks, stages = staged_effort ~samples_per_pair:config.samples_per_pair ~n:count in
      let m = Netmeasure.Schemes.staged rng fenv ~ks ~stages in
      let minutes = m.Netmeasure.Schemes.sim_seconds /. 60.0 in
      let cov = Netmeasure.Schemes.coverage m in
      let total = count * (count - 1) in
      let identity = Array.init count (fun i -> i) in
      (* Unsampled pairs stay NaN in the matrix; the gate reports them
         as LAT007. *)
      match on_missing with
      | Fail -> (Lat_matrix.of_arrays m.Netmeasure.Schemes.means, minutes, cov, identity, [], [])
      | Impute ->
          let c = Netmeasure.Completion.complete m in
          let diags =
            Lint.Instance.check_partial ~total ~imputed:c.Netmeasure.Completion.imputed
              ~dropped:0 ()
          in
          (Lat_matrix.of_arrays c.Netmeasure.Completion.means, minutes, cov, identity, [], diags)
      | Drop_instance ->
          let kept, sub = Netmeasure.Completion.drop_uncovered m in
          let dropped =
            let keep = Array.make count false in
            Array.iter (fun i -> keep.(i) <- true) kept;
            let out = ref [] in
            for i = count - 1 downto 0 do
              if not keep.(i) then out := i :: !out
            done;
            !out
          in
          let diags =
            Lint.Instance.check_partial ~total ~imputed:0 ~dropped:(List.length dropped) ()
          in
          (Lat_matrix.of_arrays sub, minutes, cov, kept, dropped, diags)
    end
  in
  (* Steps 3 and 4 on the matrix the solver will actually see: the gate
     catches unsampled pairs (LAT007), data quality, and the pool-aware
     checks the first gate could not run — a pool that dropping shrank
     below the node set fails as GRF006. The instances to terminate are
     the ones the plan leaves unused, in original allocation numbering,
     together with any dropped for lack of measurement coverage. *)
  let s =
    solve ~strict_lint ~diagnostics:partial_diags ~full:true rng config.strategy
      config.objective config.graph costs
  in
  let terminated = List.sort Int.compare (List.map (fun i -> kept.(i)) s.unused @ dropped) in
  {
    env;
    problem = s.problem;
    plan = s.plan;
    default_plan = s.default_plan;
    cost = s.cost;
    default_cost = s.default_cost;
    improvement_pct = Cost.improvement ~default:s.default_cost ~optimized:s.cost;
    measurement_minutes;
    search_seconds = s.search_seconds;
    terminated;
    kept;
    dropped;
    measurement_coverage;
    telemetry = s.telemetry;
    diagnostics = s.diagnostics;
  }
