(* Quickstart: run the ClouDiA pipeline end to end on a small behavioral-
   simulation deployment and print what the advisor did.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let rng = Prng.create 2025 in
  let provider = Cloudsim.Provider.get Cloudsim.Provider.Ec2 in
  (* The tenant's application: a 4x4 mesh of simulation workers. *)
  let rows = 4 and cols = 4 in
  let config =
    {
      Cloudia.Advisor.graph = Workloads.Behavioral.graph ~rows ~cols;
      objective = Cloudia.Cost.Longest_link;
      metric = Cloudia.Metrics.Mean;
      over_allocation = 0.25;
      samples_per_pair = 30;
      strategy =
        Cloudia.Solver.Cp { Cloudia.Cp_solver.default_options with time_limit = 10.0 };
    }
  in
  let report = Cloudia.Advisor.run rng provider config in
  let open Cloudia in
  Printf.printf "ClouDiA quickstart: %d-node mesh on %s\n" (rows * cols)
    (Cloudsim.Provider.to_string Cloudsim.Provider.Ec2);
  Printf.printf "  instances allocated      : %d (%.0f%% over-allocation)\n"
    (Cloudsim.Env.count report.Advisor.env)
    (config.Advisor.over_allocation *. 100.0);
  Printf.printf "  measurement time charged : %.1f minutes\n" report.Advisor.measurement_minutes;
  Printf.printf "  search time              : %.2f s\n" report.Advisor.search_seconds;
  Printf.printf "  default longest link     : %.3f ms\n" report.Advisor.default_cost;
  Printf.printf "  optimized longest link   : %.3f ms\n" report.Advisor.cost;
  Printf.printf "  improvement              : %.1f%%\n" report.Advisor.improvement_pct;
  Printf.printf "  instances terminated     : %s\n"
    (String.concat ", " (List.map string_of_int report.Advisor.terminated));
  (* Confirm on the simulated application itself. *)
  let ticks = 2000 in
  let default_time =
    Workloads.Behavioral.time_to_solution (Prng.create 7) report.Advisor.env
      ~plan:report.Advisor.default_plan ~rows ~cols ~ticks
  in
  let optimized_time =
    Workloads.Behavioral.time_to_solution (Prng.create 7) report.Advisor.env
      ~plan:report.Advisor.plan ~rows ~cols ~ticks
  in
  Printf.printf "  %d-tick simulation       : %.2f s default vs %.2f s optimized (%.1f%% faster)\n"
    ticks default_time optimized_time
    (Cost.improvement ~default:default_time ~optimized:optimized_time)
