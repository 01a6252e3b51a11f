(* Behavioral simulation (fish school) deployment study: compare the
   default deployment against every ClouDiA strategy on time-to-solution,
   the way Sect. 6.4 does for the longest-link workload class.

   Run with:  dune exec examples/behavioral_sim.exe *)

let rows = 5
let cols = 5
let ticks = 1500

let () =
  let provider = Cloudsim.Provider.get Cloudsim.Provider.Ec2 in
  let graph = Workloads.Behavioral.graph ~rows ~cols in
  let strategies =
    [
      ("default", None);
      ("G1", Some Cloudia.Solver.Greedy_g1);
      ("G2", Some Cloudia.Solver.Greedy_g2);
      ("R1(1000)", Some (Cloudia.Solver.Random_r1 1000));
      ( "CP",
        Some
          (Cloudia.Solver.Cp { Cloudia.Cp_solver.default_options with time_limit = 15.0 }) );
    ]
  in
  Printf.printf "Behavioral simulation: %dx%d mesh, %d ticks, 10%% over-allocation\n\n"
    rows cols ticks;
  Printf.printf "%-10s %14s %16s %12s\n" "strategy" "longest link" "time-to-solution" "vs default";
  (* One shared allocation so strategies compete on the same network. *)
  let rng = Prng.create 99 in
  let env = Cloudsim.Env.allocate rng provider ~count:(rows * cols * 11 / 10) in
  let costs = Cloudia.Metrics.estimate rng env Cloudia.Metrics.Mean ~samples_per_pair:30 in
  let problem = Cloudia.Types.of_matrix ~graph costs in
  let default_plan = Cloudia.Types.identity_plan problem in
  let default_time = ref 0.0 in
  List.iter
    (fun (name, strategy) ->
      let plan =
        match strategy with
        | None -> default_plan
        | Some s ->
            (Cloudia.Advisor.solve ~full:false rng s Cloudia.Cost.Longest_link graph costs)
              .Cloudia.Advisor.plan
      in
      let ll = Cloudia.Cost.longest_link problem plan in
      let time =
        Workloads.Behavioral.time_to_solution (Prng.create 5) env ~plan ~rows ~cols ~ticks
      in
      if name = "default" then default_time := time;
      let delta =
        if name = "default" then "-"
        else
          Printf.sprintf "%.1f%%"
            (Cloudia.Cost.improvement ~default:!default_time ~optimized:time)
      in
      Printf.printf "%-10s %11.3f ms %14.2f s %12s\n" name ll time delta)
    strategies
