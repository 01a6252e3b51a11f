open Cloudia

(* Tests for the exact solvers (CP, MIP), the hardness reductions, and the
   end-to-end advisor. Sizes are kept tiny so the suites stay fast; the
   cross-check oracle is the brute-force solver. *)

let check_float name ?(tol = 1e-6) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

let random_problem ?(nodes = 5) ?(instances = 7) ?(extra_edges = 3) seed =
  let rng = Prng.create seed in
  let graph = Graphs.Templates.random_connected rng ~n:nodes ~extra_edges in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

let cp_exact =
  {
    Cp_solver.clusters = None;
    time_limit = 20.0;
    iteration_time_limit = None;
    use_labeling = true;
    bootstrap_trials = 10;
    symmetry_breaking = true;
  }

(* ---------- CP solver ---------- *)

let test_cp_matches_brute_force () =
  for seed = 1 to 8 do
    let p = random_problem seed in
    let r = Cp_solver.solve ~options:cp_exact (Prng.create seed) p in
    let _, optimal = Brute_force.solve Cost.Longest_link p in
    Alcotest.(check bool) "valid plan" true (Types.is_valid p r.Cp_solver.plan);
    Alcotest.(check bool) "proved" true r.Cp_solver.proven_optimal;
    check_float (Printf.sprintf "seed %d optimal" seed) optimal r.Cp_solver.cost
  done

let test_cp_trace_decreasing () =
  let p = random_problem ~nodes:6 ~instances:8 21 in
  let r = Cp_solver.solve ~options:cp_exact (Prng.create 1) p in
  let costs = List.map snd r.Cp_solver.trace in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "trace non-increasing" true (non_increasing costs);
  Alcotest.(check bool) "trace ends at final cost" true
    (match List.rev costs with last :: _ -> Float.abs (last -. r.Cp_solver.cost) < 1e-9 | [] -> false)

let test_cp_with_clustering_bounded_error () =
  (* Clustering approximates the objective: the found cost can exceed the
     optimum, but never by more than the full cost range (sanity bound),
     and the plan must be valid. With k large the answer is exact. *)
  let p = random_problem ~nodes:6 ~instances:8 23 in
  let _, optimal = Brute_force.solve Cost.Longest_link p in
  let with_k k =
    let options = { cp_exact with Cp_solver.clusters = Some k } in
    (Cp_solver.solve ~options (Prng.create 2) p).Cp_solver.cost
  in
  Alcotest.(check bool) "k=5 over-approximates at worst" true (with_k 5 >= optimal -. 1e-9);
  check_float "k=100 is exact (more clusters than distinct values)" optimal (with_k 100)

let test_cp_labeling_ablation_same_result () =
  let p = random_problem ~nodes:6 ~instances:8 25 in
  let without =
    Cp_solver.solve ~options:{ cp_exact with Cp_solver.use_labeling = false }
      (Prng.create 3) p
  in
  let with_l = Cp_solver.solve ~options:cp_exact (Prng.create 3) p in
  check_float "same optimum either way" with_l.Cp_solver.cost without.Cp_solver.cost

let test_cp_symmetry_breaking_racks () =
  (* Rack-structured matrix: 5 racks of 3 instances at 0.25 ms inside a
     rack, 1.0 ms across. A 6-node mesh cannot fit in a 3-instance rack, so
     the optimum is 1.0 ms, and proving it means refuting the 0.25 ms
     threshold graph (disjoint 3-cliques). Racks are exact
     interchangeability classes: the broken search must reach the same
     proven cost while visiting strictly fewer nodes. *)
  let graph = Graphs.Templates.mesh2d ~rows:2 ~cols:3 in
  let m = 15 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' ->
            if j = j' then 0.0 else if j / 3 = j' / 3 then 0.25 else 1.0))
  in
  let p = Types.problem ~graph ~costs in
  (* Labeling off: at this tiny scale the degree-compatibility root filter
     refutes the threshold by itself (0 nodes both ways), which would leave
     nothing for the node-count comparison to measure. *)
  let run symmetry_breaking =
    Cp_solver.solve
      ~options:{ cp_exact with Cp_solver.symmetry_breaking; use_labeling = false }
      (Prng.create 11) p
  in
  let sym = run true in
  let plain = run false in
  Alcotest.(check bool) "sym proved" true sym.Cp_solver.proven_optimal;
  Alcotest.(check bool) "plain proved" true plain.Cp_solver.proven_optimal;
  check_float "optimum is one cross-rack hop" 1.0 sym.Cp_solver.cost;
  check_float "same cost either way" plain.Cp_solver.cost sym.Cp_solver.cost;
  Alcotest.(check bool)
    (Printf.sprintf "fewer nodes with symmetry breaking (%d < %d)" sym.Cp_solver.nodes
       plain.Cp_solver.nodes)
    true
    (sym.Cp_solver.nodes < plain.Cp_solver.nodes);
  Alcotest.(check bool) "valid plan" true (Types.is_valid p sym.Cp_solver.plan)

let test_cp_respects_iteration_cap () =
  (* Budget exhaustion must still yield a valid anytime plan. The cap is
     on feasibility iterations, not the wall clock, so the test cannot be
     disturbed by a slow or overloaded CI machine. *)
  let p = random_problem ~nodes:12 ~instances:16 ~extra_edges:12 27 in
  let options = { cp_exact with Cp_solver.time_limit = 60.0 } in
  let r = Cp_solver.solve ~options ~max_iterations:2 (Prng.create 4) p in
  Alcotest.(check bool) "at most two iterations" true (r.Cp_solver.iterations <= 2);
  Alcotest.(check bool) "valid plan anyway" true (Types.is_valid p r.Cp_solver.plan)

let test_cp_stops_cooperatively () =
  (* A stop callback that fires immediately leaves only the bootstrap
     incumbent, which must never be worse than best-of-10 random. *)
  let p = random_problem ~nodes:6 ~instances:8 28 in
  let r = Cp_solver.solve ~options:cp_exact ~stop:(fun () -> true) (Prng.create 5) p in
  Alcotest.(check int) "no iterations ran" 0 r.Cp_solver.iterations;
  let bootstrap = Random_search.best_of (Prng.create 5) Cost.Longest_link p 10 in
  Alcotest.(check bool) "bootstrap quality" true
    (r.Cp_solver.cost <= Cost.longest_link p bootstrap +. 1e-9)

let test_cp_beats_or_matches_greedy () =
  for seed = 31 to 36 do
    let p = random_problem ~nodes:6 ~instances:8 seed in
    let r = Cp_solver.solve ~options:cp_exact (Prng.create seed) p in
    let g2 = Cost.longest_link p (Greedy.g2 p) in
    Alcotest.(check bool) "CP <= G2" true (r.Cp_solver.cost <= g2 +. 1e-9)
  done

(* ---------- MIP solver ---------- *)

let mip_opts = { Mip_solver.default_options with Mip_solver.time_limit = 30.0 }

let test_mip_ll_matches_brute_force () =
  for seed = 1 to 3 do
    let p = random_problem ~nodes:4 ~instances:5 ~extra_edges:2 seed in
    let r = Mip_solver.solve_longest_link ~options:mip_opts (Prng.create seed) p in
    let _, optimal = Brute_force.solve Cost.Longest_link p in
    Alcotest.(check bool) "valid" true (Types.is_valid p r.Mip_solver.plan);
    check_float (Printf.sprintf "seed %d" seed) optimal r.Mip_solver.cost
  done

let tree_problem seed instances =
  let graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:1 in
  let rng = Prng.create seed in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

let test_mip_lp_matches_brute_force () =
  for seed = 1 to 3 do
    let p = tree_problem seed 5 in
    let r = Mip_solver.solve_longest_path ~options:mip_opts (Prng.create seed) p in
    let _, optimal = Brute_force.solve Cost.Longest_path p in
    Alcotest.(check bool) "valid" true (Types.is_valid p r.Mip_solver.plan);
    check_float (Printf.sprintf "seed %d" seed) optimal r.Mip_solver.cost
  done

let test_mip_lp_rejects_cyclic () =
  let graph = Graphs.Templates.ring ~n:3 in
  let costs = Array.init 4 (fun j -> Array.init 4 (fun j' -> if j = j' then 0.0 else 1.0)) in
  let p = Types.problem ~graph ~costs in
  Alcotest.check_raises "cyclic"
    (Invalid_argument "Mip_solver.solve_longest_path: communication graph must be acyclic")
    (fun () -> ignore (Mip_solver.solve_longest_path (Prng.create 1) p))

let test_mip_trace_non_increasing () =
  let p = random_problem ~nodes:4 ~instances:5 ~extra_edges:2 41 in
  let r = Mip_solver.solve_longest_link ~options:mip_opts (Prng.create 5) p in
  let costs = List.map snd r.Mip_solver.trace in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "non-increasing" true (non_increasing costs)

let test_mip_time_limit_returns_bootstrap_quality () =
  (* With a tiny budget the MIP must still return at least the bootstrap
     incumbent (never worse than best-of-10 random). *)
  let p = random_problem ~nodes:5 ~instances:7 43 in
  let options = { mip_opts with Mip_solver.time_limit = 0.05 } in
  let r = Mip_solver.solve_longest_link ~options (Prng.create 6) p in
  let bootstrap = Random_search.best_of (Prng.create 6) Cost.Longest_link p 10 in
  Alcotest.(check bool) "no worse than bootstrap" true
    (r.Mip_solver.cost <= Cost.longest_link p bootstrap +. 1e-9)

(* ---------- Reductions ---------- *)

let test_llndp_reduction_positive () =
  (* The 4-ring embeds in a 5-node graph containing a 4-ring. *)
  let pattern = Graphs.Templates.ring ~n:4 in
  let target = Graphs.Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 4) ] in
  let p = Reduction.llndp_of_sip ~pattern ~target in
  let plan, cost = Brute_force.solve Cost.Longest_link p in
  check_float "cost 1 means embedding" 1.0 cost;
  Alcotest.(check bool) "witness embeds" true (Reduction.embeds ~pattern ~target plan)

let test_llndp_reduction_negative () =
  (* No 4-ring inside a path. *)
  let pattern = Graphs.Templates.ring ~n:4 in
  let target = Graphs.Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let p = Reduction.llndp_of_sip ~pattern ~target in
  let _, cost = Brute_force.solve Cost.Longest_link p in
  check_float "cost 2 means no embedding" 2.0 cost

let test_llndp_reduction_cp_agrees () =
  let pattern = Graphs.Templates.ring ~n:4 in
  let target = Graphs.Digraph.create ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 0); (4, 5) ] in
  let p = Reduction.llndp_of_sip ~pattern ~target in
  let r = Cp_solver.solve ~options:cp_exact (Prng.create 7) p in
  check_float "CP finds the embedding" 1.0 r.Cp_solver.cost;
  Alcotest.(check bool) "embeds" true (Reduction.embeds ~pattern ~target r.Cp_solver.plan)

let test_lpndp_reduction () =
  (* Pattern: path of 3 edges. Target contains such a path: optimal LP cost
     must be <= |E1| = 3 exactly when it embeds. *)
  let pattern = Graphs.Digraph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let target = Graphs.Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let p = Reduction.lpndp_of_sip ~pattern ~target in
  let plan, cost = Brute_force.solve Cost.Longest_path p in
  Alcotest.(check bool) "cost <= |E1|" true (cost <= 3.0 +. 1e-9);
  Alcotest.(check bool) "embeds" true (Reduction.embeds ~pattern ~target plan)

let test_lpndp_reduction_negative () =
  (* A 3-edge path cannot embed into a 2-edge path plus isolated nodes. *)
  let pattern = Graphs.Digraph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let target = Graphs.Digraph.create ~n:5 [ (0, 1); (1, 2) ] in
  let p = Reduction.lpndp_of_sip ~pattern ~target in
  let _, cost = Brute_force.solve Cost.Longest_path p in
  Alcotest.(check bool) "cost > |E1| means no embedding" true (cost > 3.0 +. 1e-9)

let test_distinct_costs_preserves_order () =
  let p = random_problem 51 in
  let q = Reduction.distinct_costs (Prng.create 8) p in
  let seen = Hashtbl.create 64 in
  let all_distinct = ref true in
  Lat_matrix.iter
    (fun j j' v ->
      if j <> j' then begin
        if Hashtbl.mem seen v then all_distinct := false;
        Hashtbl.add seen v ()
      end)
    q.Types.lat;
  Alcotest.(check bool) "all distinct" true !all_distinct

(* ---------- Advisor ---------- *)

let ec2 = Cloudsim.Provider.get Cloudsim.Provider.Ec2

let advisor_config strategy objective =
  {
    Advisor.graph = Graphs.Templates.mesh2d ~rows:2 ~cols:3;
    objective;
    metric = Metrics.Mean;
    over_allocation = 0.2;
    samples_per_pair = 20;
    strategy;
  }

let test_advisor_end_to_end_strategies () =
  List.iter
    (fun strategy ->
      let report =
        Advisor.run (Prng.create 61) ec2 (advisor_config strategy Cost.Longest_link)
      in
      Alcotest.(check bool)
        (Solver.name strategy ^ " valid plan")
        true
        (Types.is_valid report.Advisor.problem report.Advisor.plan);
      Alcotest.(check int) "allocation size" 8 (Cloudsim.Env.count report.Advisor.env);
      Alcotest.(check int) "terminated count" 2 (List.length report.Advisor.terminated);
      check_float "improvement formula" report.Advisor.improvement_pct
        (Cost.improvement ~default:report.Advisor.default_cost
           ~optimized:report.Advisor.cost))
    [
      Solver.Greedy_g1;
      Solver.Greedy_g2;
      Solver.Random_r1 200;
      Solver.Cp { cp_exact with Cp_solver.time_limit = 5.0 };
    ]

let test_advisor_exact_strategies_beat_default () =
  (* CP with full budget optimizes the measured objective, so it can never
     be worse than the default plan under that objective. *)
  let report =
    Advisor.run (Prng.create 62) ec2
      (advisor_config (Solver.Cp { cp_exact with Cp_solver.time_limit = 5.0 })
         Cost.Longest_link)
  in
  Alcotest.(check bool) "CP <= default" true
    (report.Advisor.cost <= report.Advisor.default_cost +. 1e-9)

let test_advisor_longest_path_mip () =
  let config =
    {
      Advisor.graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:1;
      objective = Cost.Longest_path;
      metric = Metrics.Mean;
      over_allocation = 0.4;
      samples_per_pair = 10;
      strategy = Solver.Mip { mip_opts with Mip_solver.time_limit = 10.0 };
    }
  in
  let report = Advisor.run (Prng.create 63) ec2 config in
  Alcotest.(check bool) "valid" true
    (Types.is_valid report.Advisor.problem report.Advisor.plan);
  Alcotest.(check bool) "LP cost positive" true (report.Advisor.cost > 0.0)

let test_advisor_rejects_cp_for_longest_path () =
  (* A DAG graph, so the pre-solve lint gate passes and the strategy/
     objective mismatch is what gets exercised. *)
  let config =
    {
      (advisor_config (Solver.Cp cp_exact) Cost.Longest_path) with
      Advisor.graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:2;
    }
  in
  Alcotest.check_raises "cp + longest path"
    (Invalid_argument "Solver.run: CP does not support the longest-path objective")
    (fun () -> ignore (Advisor.run (Prng.create 64) ec2 config))

let test_advisor_lint_gate_rejects_cyclic_lpndp () =
  (* mesh2d is cyclic: the longest-path objective on it must be caught by
     the lint gate (GRF005) before any solver runs, not surface as an
     exception deep inside Cost. *)
  let config = advisor_config Solver.Greedy_g2 Cost.Longest_path in
  match Advisor.run (Prng.create 64) ec2 config with
  | exception Lint.Diagnostic.Failed ds ->
      Alcotest.(check bool) "GRF005 reported" true
        (List.exists (fun d -> d.Lint.Diagnostic.code = "GRF005") ds)
  | _ -> Alcotest.fail "expected Lint.Diagnostic.Failed"

let test_advisor_measurement_time_scales () =
  let r1 = Advisor.run (Prng.create 65) ec2 (advisor_config Solver.Greedy_g2 Cost.Longest_link) in
  Alcotest.(check bool) "measurement minutes positive" true
    (r1.Advisor.measurement_minutes > 0.0)

(* Two domains solving different problems at once must each get exactly
   the serial answer: a CSP keeps all its propagation state (queue,
   matching, transposes) to itself, with nothing shared at module level.
   Work-bounded (node limit, no clock), so the serial run is the oracle. *)
let test_cp_concurrent_domains_match_serial () =
  let options = { Cp_solver.default_options with clusters = Some 8; time_limit = 1e9 } in
  let problem seed = random_problem ~nodes:9 ~instances:14 ~extra_edges:6 seed in
  let problems = [| problem 71; problem 72 |] in
  let solve j =
    Cp_solver.solve ~options ~node_limit:400 (Prng.create (80 + j)) problems.(j)
  in
  let summary (r : Cp_solver.result) =
    ( r.Cp_solver.plan,
      Int64.bits_of_float r.Cp_solver.cost,
      (r.Cp_solver.nodes, r.Cp_solver.failures, r.Cp_solver.propagations, r.Cp_solver.iterations) )
  in
  let serial = Array.init 2 (fun j -> summary (solve j)) in
  Alcotest.(check bool) "the solves iterate" true
    (Array.for_all (fun (_, _, (_, _, _, iterations)) -> iterations > 1) serial);
  for _ = 1 to 3 do
    let other = Stdlib.Domain.spawn (fun () -> summary (solve 1)) in
    let mine = summary (solve 0) in
    let theirs = Stdlib.Domain.join other in
    Alcotest.(check bool) "domain 0 matches serial" true (mine = serial.(0));
    Alcotest.(check bool) "domain 1 matches serial" true (theirs = serial.(1))
  done

let suite =
  [
    Alcotest.test_case "cp matches brute force" `Quick test_cp_matches_brute_force;
    Alcotest.test_case "cp trace decreasing" `Quick test_cp_trace_decreasing;
    Alcotest.test_case "cp clustering bounded error" `Quick test_cp_with_clustering_bounded_error;
    Alcotest.test_case "cp labeling ablation" `Quick test_cp_labeling_ablation_same_result;
    Alcotest.test_case "cp symmetry breaking racks" `Quick test_cp_symmetry_breaking_racks;
    Alcotest.test_case "cp iteration cap" `Quick test_cp_respects_iteration_cap;
    Alcotest.test_case "cp cooperative stop" `Quick test_cp_stops_cooperatively;
    Alcotest.test_case "cp concurrent domains match serial" `Quick
      test_cp_concurrent_domains_match_serial;
    Alcotest.test_case "cp beats greedy" `Quick test_cp_beats_or_matches_greedy;
    Alcotest.test_case "mip LL matches brute force" `Slow test_mip_ll_matches_brute_force;
    Alcotest.test_case "mip LP matches brute force" `Slow test_mip_lp_matches_brute_force;
    Alcotest.test_case "mip LP rejects cyclic" `Quick test_mip_lp_rejects_cyclic;
    Alcotest.test_case "mip trace non-increasing" `Slow test_mip_trace_non_increasing;
    Alcotest.test_case "mip time limit bootstrap" `Quick
      test_mip_time_limit_returns_bootstrap_quality;
    Alcotest.test_case "llndp reduction positive" `Quick test_llndp_reduction_positive;
    Alcotest.test_case "llndp reduction negative" `Quick test_llndp_reduction_negative;
    Alcotest.test_case "llndp reduction via cp" `Quick test_llndp_reduction_cp_agrees;
    Alcotest.test_case "lpndp reduction" `Quick test_lpndp_reduction;
    Alcotest.test_case "lpndp reduction negative" `Quick test_lpndp_reduction_negative;
    Alcotest.test_case "distinct costs" `Quick test_distinct_costs_preserves_order;
    Alcotest.test_case "advisor end-to-end" `Quick test_advisor_end_to_end_strategies;
    Alcotest.test_case "advisor cp beats default" `Quick test_advisor_exact_strategies_beat_default;
    Alcotest.test_case "advisor longest path mip" `Slow test_advisor_longest_path_mip;
    Alcotest.test_case "advisor rejects cp+lp" `Quick test_advisor_rejects_cp_for_longest_path;
    Alcotest.test_case "advisor lint gate rejects cyclic lpndp" `Quick
      test_advisor_lint_gate_rejects_cyclic_lpndp;
    Alcotest.test_case "advisor measurement time" `Quick test_advisor_measurement_time_scales;
  ]
