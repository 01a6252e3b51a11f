open Cloudia

(* Cross-module consistency properties: different paths through the API
   that must agree with each other. *)

let ec2 = Cloudsim.Provider.get Cloudsim.Provider.Ec2

let check_float name ?(tol = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ---------- Environment reproducibility ---------- *)

let test_env_fully_deterministic () =
  (* Same seed: identical hosts, means, bandwidths, hop counts, IPs. *)
  let a = Cloudsim.Env.allocate (Prng.create 7) ec2 ~count:15 in
  let b = Cloudsim.Env.allocate (Prng.create 7) ec2 ~count:15 in
  for i = 0 to 14 do
    Alcotest.(check int) "host" (Cloudsim.Env.host a i) (Cloudsim.Env.host b i);
    Alcotest.(check (pair (pair int int) (pair int int)))
      "ip"
      (let w, x, y, z = Cloudsim.Env.ip_address a i in
       ((w, x), (y, z)))
      (let w, x, y, z = Cloudsim.Env.ip_address b i in
       ((w, x), (y, z)));
    for j = 0 to 14 do
      check_float "mean" (Cloudsim.Env.mean_latency a i j) (Cloudsim.Env.mean_latency b i j);
      if i <> j then
        check_float "bandwidth" (Cloudsim.Env.bandwidth a i j) (Cloudsim.Env.bandwidth b i j)
    done
  done

let test_perturb_preserves_bandwidth_and_hosts () =
  let env = Cloudsim.Env.allocate (Prng.create 9) ec2 ~count:12 in
  let p = Cloudsim.Env.perturb (Prng.create 10) env ~fraction:0.5 ~magnitude:0.8 in
  for i = 0 to 11 do
    Alcotest.(check int) "hosts preserved" (Cloudsim.Env.host env i) (Cloudsim.Env.host p i);
    for j = 0 to 11 do
      if i <> j then
        check_float "bandwidth preserved" (Cloudsim.Env.bandwidth env i j)
          (Cloudsim.Env.bandwidth p i j)
    done
  done

(* ---------- Measurement time accounting ---------- *)

let test_token_time_scales_with_samples () =
  let env = Cloudsim.Env.allocate (Prng.create 11) ec2 ~count:8 in
  let t1 = (Netmeasure.Schemes.token_passing (Prng.create 12) env ~samples_per_pair:5)
             .Netmeasure.Schemes.sim_seconds in
  let t2 = (Netmeasure.Schemes.token_passing (Prng.create 12) env ~samples_per_pair:10)
             .Netmeasure.Schemes.sim_seconds in
  Alcotest.(check bool)
    (Printf.sprintf "doubling samples roughly doubles time (%.2f vs %.2f)" t1 t2)
    true
    (t2 > 1.7 *. t1 && t2 < 2.3 *. t1)

(* ---------- Advisor report internal consistency ---------- *)

let test_advisor_report_fields_agree () =
  let config =
    {
      Advisor.graph = Graphs.Templates.mesh2d ~rows:2 ~cols:3;
      objective = Cost.Longest_link;
      metric = Metrics.Mean;
      over_allocation = 0.3;
      samples_per_pair = 20;
      strategy = Solver.Greedy_g2;
    }
  in
  let r = Advisor.run (Prng.create 13) ec2 config in
  check_float "cost = eval(plan)" (Cost.longest_link r.Advisor.problem r.Advisor.plan)
    r.Advisor.cost;
  check_float "default cost = eval(default)"
    (Cost.longest_link r.Advisor.problem r.Advisor.default_plan)
    r.Advisor.default_cost;
  Alcotest.(check (list int)) "terminated = unused"
    (Types.unused_instances r.Advisor.problem r.Advisor.plan)
    r.Advisor.terminated;
  (* Terminated plus plan instances partition the allocation. *)
  Alcotest.(check int) "partition"
    (Cloudsim.Env.count r.Advisor.env)
    (List.length r.Advisor.terminated + Array.length r.Advisor.plan)

(* ---------- Weighted/unweighted agreement under uniform weights ---------- *)

let test_weighted_cp_uniform_equals_plain () =
  let rng = Prng.create 15 in
  let graph = Graphs.Templates.mesh2d ~rows:2 ~cols:2 in
  let m = 6 in
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
  let plain = Cp_solver.solve ~options (Prng.create 16) p in
  let weighted =
    Weighted.solve_cp ~options (Prng.create 16) (Weighted.make p ~weight:(fun _ _ -> 1.0))
  in
  Alcotest.(check bool) "both proved" true
    (plain.Cp_solver.proven_optimal && weighted.Cp_solver.proven_optimal);
  check_float "same optimum" plain.Cp_solver.cost weighted.Cp_solver.cost

(* ---------- Brute force vs anneal vs CP triple agreement ---------- *)

let test_three_solvers_agree_on_optimum () =
  for seed = 21 to 24 do
    let rng = Prng.create seed in
    let graph = Graphs.Templates.random_connected rng ~n:5 ~extra_edges:2 in
    let m = 7 in
    let costs =
      Array.init m (fun j ->
          Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
    in
    let p = Types.problem ~graph ~costs in
    let _, bf = Brute_force.solve Cost.Longest_link p in
    let cp =
      Cp_solver.solve
        ~options:
          {
            Cp_solver.clusters = None;
            time_limit = 20.0;
            iteration_time_limit = None;
            use_labeling = true;
            bootstrap_trials = 10;
            symmetry_breaking = true;
          }
        (Prng.create seed) p
    in
    check_float (Printf.sprintf "cp = brute force (seed %d)" seed) bf cp.Cp_solver.cost;
    (* Annealing is a heuristic: it must never beat the proven optimum. *)
    let sa =
      Anneal.solve_objective
        ~options:{ Anneal.default_options with Anneal.time_limit = 0.3 }
        (Prng.create seed) Cost.Longest_link p
    in
    Alcotest.(check bool) "anneal >= optimum" true (sa.Anneal.cost >= bf -. 1e-9)
  done

(* ---------- Graph I/O idempotence (property) ---------- *)

let graph_io_roundtrip =
  QCheck.Test.make ~name:"edge-list print/parse roundtrip on random graphs" ~count:80
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Graphs.Templates.random_connected rng ~n ~extra_edges:(n / 2) in
      match Graphs.Graph_io.parse_edge_list (Graphs.Graph_io.print_edge_list g) with
      | Error _ -> false
      | Ok (g', _) -> Graphs.Digraph.edges g = Graphs.Digraph.edges g')

(* ---------- Metric matrices are usable problems (property) ---------- *)

let metric_matrices_valid =
  QCheck.Test.make ~name:"estimated metric matrices satisfy problem invariants" ~count:20
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, count) ->
      let env = Cloudsim.Env.allocate (Prng.create seed) ec2 ~count in
      let derive = Metrics.estimate_all (Prng.create (seed + 1)) env ~samples_per_pair:10 in
      List.for_all
        (fun metric ->
          let costs = derive metric in
          match Types.of_matrix ~graph:(Graphs.Templates.star ~n:count) costs with
          | exception Invalid_argument _ -> false
          | _ -> true)
        [ Metrics.Mean; Metrics.Mean_plus_sd; Metrics.P99 ])

let suite =
  [
    Alcotest.test_case "env fully deterministic" `Quick test_env_fully_deterministic;
    Alcotest.test_case "perturb preserves bandwidth/hosts" `Quick
      test_perturb_preserves_bandwidth_and_hosts;
    Alcotest.test_case "token time scales with samples" `Quick
      test_token_time_scales_with_samples;
    Alcotest.test_case "advisor report fields agree" `Quick test_advisor_report_fields_agree;
    Alcotest.test_case "weighted cp uniform = plain" `Quick test_weighted_cp_uniform_equals_plain;
    Alcotest.test_case "three solvers agree" `Quick test_three_solvers_agree_on_optimum;
    QCheck_alcotest.to_alcotest ~long:false graph_io_roundtrip;
    QCheck_alcotest.to_alcotest ~long:false metric_matrices_valid;
  ]
