open Cloudia

(* Tests for the core deployment-problem types, cost functions, metrics,
   clustering, and lightweight solvers. *)

let check_float name ?(tol = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* A small hand-built problem: path graph 0 -> 1 -> 2 on 4 instances. *)
let path_problem =
  let graph = Graphs.Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let costs =
    [|
      [| 0.0; 1.0; 5.0; 2.0 |];
      [| 1.0; 0.0; 3.0; 4.0 |];
      [| 5.0; 3.0; 0.0; 6.0 |];
      [| 2.0; 4.0; 6.0; 0.0 |];
    |]
  in
  Types.problem ~graph ~costs

(* ---------- Types ---------- *)

let test_problem_validation () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "not square" (Invalid_argument "Types.problem: cost matrix not square")
    (fun () -> ignore (Types.problem ~graph ~costs:[| [| 0.0 |]; [| 0.0; 0.0 |] |]));
  Alcotest.check_raises "nonzero diagonal" (Invalid_argument "Types.problem: nonzero diagonal")
    (fun () -> ignore (Types.problem ~graph ~costs:[| [| 1.0; 1.0 |]; [| 1.0; 0.0 |] |]));
  Alcotest.check_raises "too few instances"
    (Invalid_argument "Types.problem: more application nodes than instances")
    (fun () -> ignore (Types.problem ~graph ~costs:[| [| 0.0 |] |]))

let test_counts () =
  Alcotest.(check int) "nodes" 3 (Types.node_count path_problem);
  Alcotest.(check int) "instances" 4 (Types.instance_count path_problem)

let test_plan_validity () =
  Alcotest.(check bool) "valid" true (Types.is_valid path_problem [| 0; 1; 2 |]);
  Alcotest.(check bool) "duplicate" false (Types.is_valid path_problem [| 0; 0; 2 |]);
  Alcotest.(check bool) "out of range" false (Types.is_valid path_problem [| 0; 1; 9 |]);
  Alcotest.(check bool) "wrong length" false (Types.is_valid path_problem [| 0; 1 |])

let test_identity_plan () =
  Alcotest.(check (array int)) "identity" [| 0; 1; 2 |] (Types.identity_plan path_problem)

let test_random_plan_valid () =
  let rng = Prng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "valid" true
      (Types.is_valid path_problem (Types.random_plan rng path_problem))
  done

let test_unused_instances () =
  Alcotest.(check (list int)) "unused" [ 3 ] (Types.unused_instances path_problem [| 0; 1; 2 |]);
  Alcotest.(check (list int)) "unused" [ 1 ] (Types.unused_instances path_problem [| 0; 3; 2 |])

(* ---------- Cost ---------- *)

let test_longest_link_values () =
  (* plan [0;1;2]: edges (0,1) cost 1, (1,2) cost 3 -> LL 3. *)
  check_float "LL identity" 3.0 (Cost.longest_link path_problem [| 0; 1; 2 |]);
  (* plan [0;1;3]: edges cost 1 and 4 -> LL 4. *)
  check_float "LL alt" 4.0 (Cost.longest_link path_problem [| 0; 1; 3 |]);
  (* plan [2;1;0]: edge (0,1): costs(2)(1)=3; edge (1,2): costs(1)(0)=1. *)
  check_float "LL reversed" 3.0 (Cost.longest_link path_problem [| 2; 1; 0 |])

let test_longest_link_witness () =
  let cost, witness = Cost.longest_link_witness path_problem [| 0; 1; 2 |] in
  check_float "witness cost" 3.0 cost;
  Alcotest.(check (option (pair int int))) "witness edge" (Some (1, 2)) witness

let test_longest_path_values () =
  (* Path 0 -> 1 -> 2 sums both links: plan [0;1;2] = 1 + 3 = 4. *)
  check_float "LP identity" 4.0 (Cost.longest_path path_problem [| 0; 1; 2 |]);
  check_float "LP alt" 5.0 (Cost.longest_path path_problem [| 0; 1; 3 |])

let test_longest_path_vs_link_on_single_edge () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  let costs = [| [| 0.0; 7.0 |]; [| 7.0; 0.0 |] |] in
  let p = Types.problem ~graph ~costs in
  check_float "equal on single edge" (Cost.longest_link p [| 0; 1 |])
    (Cost.longest_path p [| 0; 1 |])

let test_longest_path_rejects_cycles () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1); (1, 0) ] in
  let costs = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let p = Types.problem ~graph ~costs in
  Alcotest.check_raises "cyclic graph"
    (Invalid_argument "Digraph.longest_path: graph has a cycle")
    (fun () -> ignore (Cost.longest_path p [| 0; 1 |]))

let test_improvement () =
  check_float "50%" 50.0 (Cost.improvement ~default:2.0 ~optimized:1.0);
  check_float "0% for zero default" 0.0 (Cost.improvement ~default:0.0 ~optimized:0.0);
  check_float "negative when worse" (-100.0) (Cost.improvement ~default:1.0 ~optimized:2.0)

(* ---------- Metrics ---------- *)

let test_metric_reductions () =
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "mean" 50.5 (Metrics.of_samples Metrics.Mean samples);
  Alcotest.(check bool) "mean+sd above mean" true
    (Metrics.of_samples Metrics.Mean_plus_sd samples > 50.5);
  Alcotest.(check bool) "p99 above mean" true
    (Metrics.of_samples Metrics.P99 samples > 50.5)

let test_metric_strings () =
  List.iter
    (fun m ->
      Alcotest.(check (option string)) "roundtrip" (Some (Metrics.to_string m))
        (Option.map Metrics.to_string (Metrics.of_string (Metrics.to_string m))))
    [ Metrics.Mean; Metrics.Mean_plus_sd; Metrics.P99 ];
  Alcotest.(check bool) "unknown" true (Metrics.of_string "bogus" = None)

let ec2 = Cloudsim.Provider.get Cloudsim.Provider.Ec2

let test_metric_estimate_shape () =
  let env = Cloudsim.Env.allocate (Prng.create 1) ec2 ~count:10 in
  let m = Metrics.estimate (Prng.create 2) env Metrics.Mean ~samples_per_pair:30 in
  Alcotest.(check int) "rows" 10 (Lat_matrix.dim m);
  for i = 0 to 9 do
    check_float "diag" 0.0 (Lat_matrix.get m i i);
    for j = 0 to 9 do
      if i <> j then Alcotest.(check bool) "positive" true (Lat_matrix.get m i j > 0.0)
    done
  done

(* [estimate] streams one pair's samples at a time; it must draw and
   reduce exactly as [estimate_all], which keeps every sample. *)
let test_metric_estimate_streams_bit_identically () =
  let env = Cloudsim.Env.allocate (Prng.create 5) ec2 ~count:9 in
  List.iter
    (fun metric ->
      let streamed = Metrics.estimate (Prng.create 6) env metric ~samples_per_pair:7 in
      let kept = Metrics.estimate_all (Prng.create 6) env ~samples_per_pair:7 metric in
      Lat_matrix.iter
        (fun i j v ->
          Alcotest.(check int64) (Printf.sprintf "entry %d,%d" i j) (Int64.bits_of_float v)
            (Int64.bits_of_float (Lat_matrix.get streamed i j)))
        kept)
    [ Metrics.Mean; Metrics.Mean_plus_sd; Metrics.P99 ]

let test_metric_ordering_on_jittery_links () =
  (* For lognormal jitter: mean < mean+sd < p99 per link (given enough
     samples). *)
  let env = Cloudsim.Env.allocate (Prng.create 3) ec2 ~count:6 in
  let derive = Metrics.estimate_all (Prng.create 4) env ~samples_per_pair:300 in
  let mean = derive Metrics.Mean in
  let msd = derive Metrics.Mean_plus_sd in
  let p99 = derive Metrics.P99 in
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i <> j then begin
        Alcotest.(check bool) "mean < mean+sd" true
          (Lat_matrix.get mean i j < Lat_matrix.get msd i j);
        Alcotest.(check bool) "mean < p99" true
          (Lat_matrix.get mean i j < Lat_matrix.get p99 i j)
      end
    done
  done

(* ---------- Clustering ---------- *)

let test_clustering_rounds_to_levels () =
  let c = Clustering.cluster ~k:2 path_problem.Types.lat in
  Alcotest.(check int) "two levels" 2 (Array.length c.Clustering.levels);
  let levels = Array.to_list c.Clustering.levels in
  Lat_matrix.iter
    (fun j j' v ->
      if j <> j' then
        Alcotest.(check bool) "entry is a level" true (List.mem v levels))
    c.Clustering.rounded

let test_clustering_none_preserves () =
  let c = Clustering.none path_problem.Types.lat in
  Alcotest.(check bool) "identical" true
    (Lat_matrix.equal c.Clustering.rounded path_problem.Types.lat);
  (* Distinct off-diagonal values of the path problem: 1..6. *)
  Alcotest.(check int) "distinct levels" 6 (Array.length c.Clustering.levels)

let test_clustering_preserves_diagonal () =
  let c = Clustering.cluster ~k:3 path_problem.Types.lat in
  for j = 0 to 3 do
    check_float "diag" 0.0 (Lat_matrix.get c.Clustering.rounded j j)
  done

let test_clustering_clamps_k () =
  (* The CLI's redeploy/overlap paths pass the solver default k = 20
     straight through; on a matrix with only three distinct latencies
     that used to crash 1-D k-means. [cluster] must clamp k to the
     distinct count — and at full k the rounding is exact. *)
  let lat =
    Lat_matrix.init 4 (fun j j' ->
        if j = j' then 0.0 else float_of_int (((j + j') mod 3) + 1))
  in
  let c = Clustering.cluster ~k:20 lat in
  Alcotest.(check bool) "levels bounded by distinct values" true
    (Array.length c.Clustering.levels <= 3);
  Alcotest.(check bool) "identity rounding at clamped k" true
    (Lat_matrix.equal c.Clustering.rounded lat)

let test_clustering_ignores_non_finite () =
  (* NaN marks an unsampled pair; it must not reach k-means, must not
     become a level (it would poison the CP thresholds), and must survive
     verbatim in the rounded matrix. *)
  let lat =
    Lat_matrix.init 4 (fun j j' ->
        if j = j' then 0.0
        else if j = 0 && j' = 1 then Float.nan
        else if j = 1 && j' = 0 then Float.infinity
        else 1.0 +. float_of_int ((j + j') mod 2))
  in
  let c = Clustering.cluster ~k:8 lat in
  Array.iter
    (fun l -> Alcotest.(check bool) "cluster level finite" true (Float.is_finite l))
    c.Clustering.levels;
  Alcotest.(check bool) "NaN preserved in rounded" true
    (Float.is_nan (Lat_matrix.get c.Clustering.rounded 0 1));
  Alcotest.(check bool) "infinity preserved in rounded" true
    (Lat_matrix.get c.Clustering.rounded 1 0 = Float.infinity);
  let n = Clustering.none lat in
  Array.iter
    (fun l -> Alcotest.(check bool) "none level finite" true (Float.is_finite l))
    n.Clustering.levels;
  Alcotest.(check int) "distinct finite levels" 2 (Array.length n.Clustering.levels)

let test_clustering_all_non_finite () =
  (* Degenerate but legal: nothing sampled yet. No levels, input
     untouched. *)
  let lat = Lat_matrix.init 3 (fun j j' -> if j = j' then 0.0 else Float.nan) in
  let c = Clustering.cluster ~k:5 lat in
  Alcotest.(check int) "no levels" 0 (Array.length c.Clustering.levels);
  Alcotest.(check bool) "matrix preserved" true (Lat_matrix.equal c.Clustering.rounded lat)

(* The rank-table clustering against the one it replaced
   ([Cp_reference.Clustering]: a filter of the finite cells, the full-DP
   k-means and a nearest-center scan per cell; a sort and a dedup for
   [none]). Rounded matrices and levels must match bit for bit, with one
   exception: a zero level of [none] may differ in sign when the matrix
   holds both -0 and +0, because each picks its own cell to stand for
   that class (the awkward matrices below hit it). k-means centers are
   differences of prefix sums that start at +0, so they are never -0. *)
let test_clustering_matches_reference () =
  let cells lat =
    Lat_matrix.to_arrays lat |> Array.to_list |> Array.concat |> Array.map Int64.bits_of_float
  in
  let signed_zeros lat =
    let neg = ref false and pos = ref false in
    Lat_matrix.iter
      (fun j j' v -> if j <> j' && v = 0.0 then if Float.sign_bit v then neg := true else pos := true)
      lat;
    !neg && !pos
  in
  let same ~zero_sign name (want : Cp_reference.Clustering.t) (got : Clustering.t) =
    let same_level x y =
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) || (zero_sign && x = 0.0 && y = 0.0)
    in
    Alcotest.(check (array int64))
      (name ^ ": rounded") (cells want.rounded) (cells got.Clustering.rounded);
    Alcotest.(check bool)
      (name ^ ": levels") true
      (Array.length want.levels = Array.length got.Clustering.levels
      && Array.for_all2 same_level want.levels got.Clustering.levels)
  in
  let check name lat =
    let want = Cp_reference.Clustering.none lat in
    same ~zero_sign:(signed_zeros lat) (name ^ " none") want (Clustering.none lat);
    List.iter
      (fun k ->
        same ~zero_sign:false
          (Printf.sprintf "%s k=%d" name k)
          (Cp_reference.Clustering.cluster ~k lat)
          (Clustering.cluster ~k lat))
      [ 1; 2; 3; 20; Array.length want.levels + 1 ]
  in
  let rng = Prng.create 2828 in
  for m = 0 to 3 do
    check (Printf.sprintf "%dx%d zeros" m m) (Lat_matrix.create m);
    check (Printf.sprintf "%dx%d all NaN" m m) (Lat_matrix.init m (fun _ _ -> Float.nan));
    for trial = 1 to 20 do
      check
        (Printf.sprintf "%dx%d awkward #%d" m m trial)
        (Lat_matrix.init m (fun j j' -> if j = j' then 0.0 else Test_delta.awkward_cell rng))
    done
  done;
  (* The diagonal is awkward too: it must not count. *)
  for trial = 1 to 20 do
    let m = if trial = 1 then 44 else 4 + Prng.int rng 41 in
    check
      (Printf.sprintf "%dx%d awkward #%d" m m trial)
      (Lat_matrix.init m (fun _ _ -> Test_delta.awkward_cell rng))
  done;
  (* At k = 2 the centers are 3 and 0x1.8000000000002p+1 (its cluster's
     mean, rounded), and the cell 0x1.8000000000001p+1 at (2, 0) lies
     exactly midway between them: the first center takes it. *)
  let x = 0x1.8000000000001p+1 and hi = 0x1.8000000000002p+1 in
  let midway =
    Lat_matrix.of_arrays [| [| 0.0; 3.0; hi |]; [| hi; 0.0; hi |]; [| x; hi; 0.0 |] |]
  in
  let c = Clustering.cluster ~k:2 midway in
  Alcotest.(check bool) "the cell is midway" true
    (c.Clustering.levels = [| 3.0; hi |] && Float.abs (x -. 3.0) = Float.abs (x -. hi));
  check_float ~tol:0.0 "the first center takes it" 3.0 (Lat_matrix.get c.Clustering.rounded 2 0);
  check "3x3 midway" midway

let random_problem ?(nodes = 8) ?(instances = 10) seed =
  let rng = Prng.create seed in
  let graph = Graphs.Templates.random_connected rng ~n:nodes ~extra_edges:4 in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

let test_greedy_plans_valid () =
  for seed = 1 to 10 do
    let p = random_problem seed in
    Alcotest.(check bool) "g1 valid" true (Types.is_valid p (Greedy.g1 p));
    Alcotest.(check bool) "g2 valid" true (Types.is_valid p (Greedy.g2 p))
  done

let test_greedy_on_mesh () =
  let rng = Prng.create 5 in
  let graph = Graphs.Templates.mesh2d ~rows:3 ~cols:3 in
  let m = 11 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  Alcotest.(check bool) "g1 valid on mesh" true (Types.is_valid p (Greedy.g1 p));
  Alcotest.(check bool) "g2 valid on mesh" true (Types.is_valid p (Greedy.g2 p))

let test_g2_beats_g1_on_average () =
  (* Sect. 6.5.2: G2 improves G1 significantly. Check the aggregate over
     several random problems. *)
  let total_g1 = ref 0.0 and total_g2 = ref 0.0 in
  for seed = 1 to 25 do
    let p = random_problem ~nodes:10 ~instances:12 seed in
    total_g1 := !total_g1 +. Cost.longest_link p (Greedy.g1 p);
    total_g2 := !total_g2 +. Cost.longest_link p (Greedy.g2 p)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "G2 total (%.3f) < G1 total (%.3f)" !total_g2 !total_g1)
    true (!total_g2 < !total_g1)

let test_greedy_handles_disconnected_graph () =
  let graph = Graphs.Digraph.create ~n:4 [ (0, 1); (2, 3) ] in
  let rng = Prng.create 9 in
  let costs =
    Array.init 5 (fun j ->
        Array.init 5 (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  Alcotest.(check bool) "g1 valid" true (Types.is_valid p (Greedy.g1 p));
  Alcotest.(check bool) "g2 valid" true (Types.is_valid p (Greedy.g2 p))

let test_greedy_single_node () =
  let graph = Graphs.Digraph.create ~n:1 [] in
  let costs = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let p = Types.problem ~graph ~costs in
  Alcotest.(check bool) "g1" true (Types.is_valid p (Greedy.g1 p));
  Alcotest.(check bool) "g2" true (Types.is_valid p (Greedy.g2 p))

(* ---------- Random search ---------- *)

let test_r1_improves_with_trials () =
  let p = random_problem 7 in
  let _, c1 = Random_search.r1 (Prng.create 1) Cost.Longest_link p ~trials:1 in
  let _, c1000 = Random_search.r1 (Prng.create 1) Cost.Longest_link p ~trials:1000 in
  Alcotest.(check bool) "more trials no worse" true (c1000 <= c1)

let test_r1_returns_consistent_cost () =
  let rng = Prng.create 8 in
  let graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:2 in
  let m = 9 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let plan, cost = Random_search.r1 (Prng.create 2) Cost.Longest_path p ~trials:50 in
  check_float "cost matches plan" (Cost.longest_path p plan) cost

let test_r2_respects_time () =
  (* Drive the budget with an injected clock that advances 10 ms per
     reading: the first call sets the deadline, each loop check consumes
     one tick, so the budget admits exactly 9 extra trials after the
     initial plan — no real scheduler involved, so no flakiness. *)
  let p = random_problem 9 in
  let ticks = ref 0 in
  let now () =
    let t = 0.01 *. float_of_int !ticks in
    incr ticks;
    t
  in
  let plan, cost, trials =
    Random_search.r2 ~now (Prng.create 3) Cost.Longest_link p ~time_limit:0.1
  in
  Alcotest.(check bool) "valid" true (Types.is_valid p plan);
  check_float "cost consistent" (Cost.longest_link p plan) cost;
  Alcotest.(check int) "trial count set by the clock alone" 10 trials

let test_r2_stops_cooperatively () =
  (* The stop callback ends the search regardless of the remaining budget. *)
  let p = random_problem 9 in
  let polls = ref 0 in
  let stop () =
    incr polls;
    !polls > 5
  in
  let plan, _, trials =
    Random_search.r2 ~stop (Prng.create 4) Cost.Longest_link p ~time_limit:3600.0
  in
  Alcotest.(check bool) "valid" true (Types.is_valid p plan);
  Alcotest.(check int) "stopped after five polls" 6 trials

(* ---------- Brute force ---------- *)

let test_brute_force_is_optimal_exhaustively () =
  (* Cross-check the pruned brute force against unpruned enumeration. *)
  let p = random_problem ~nodes:4 ~instances:6 11 in
  let _, bf = Brute_force.solve Cost.Longest_link p in
  (* Unpruned: enumerate injections explicitly. *)
  let best = ref infinity in
  let rec enumerate plan used i =
    if i = 4 then begin
      let c = Cost.longest_link p (Array.of_list (List.rev plan)) in
      if c < !best then best := c
    end
    else
      for s = 0 to 5 do
        if not (List.mem s used) then enumerate (s :: plan) (s :: used) (i + 1)
      done
  in
  enumerate [] [] 0;
  check_float "matches exhaustive" !best bf

let test_brute_force_longest_path () =
  let graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:1 in
  let rng = Prng.create 13 in
  let costs =
    Array.init 5 (fun j ->
        Array.init 5 (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let plan, cost = Brute_force.solve Cost.Longest_path p in
  Alcotest.(check bool) "valid" true (Types.is_valid p plan);
  check_float "cost consistent" (Cost.longest_path p plan) cost

let test_brute_force_guard () =
  let p = random_problem ~nodes:4 ~instances:11 15 in
  Alcotest.check_raises "guard"
    (Invalid_argument "Brute_force.solve: instance count exceeds the safety bound")
    (fun () -> ignore (Brute_force.solve Cost.Longest_link p))

let qcheck_props =
  [
    QCheck.Test.make ~name:"greedy plans always valid" ~count:50
      QCheck.(small_int)
      (fun seed ->
        let p = random_problem ~nodes:6 ~instances:8 seed in
        Types.is_valid p (Greedy.g1 p) && Types.is_valid p (Greedy.g2 p));
    QCheck.Test.make ~name:"longest path >= longest link on path graphs" ~count:50
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let n = 3 + Prng.int rng 4 in
        let graph = Graphs.Digraph.create ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
        let m = n + 2 in
        let costs =
          Array.init m (fun j ->
              Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
        in
        let p = Types.problem ~graph ~costs in
        let plan = Types.random_plan rng p in
        Cost.longest_path p plan >= Cost.longest_link p plan -. 1e-9);
    QCheck.Test.make ~name:"deployment cost invariant under node exchange symmetry" ~count:30
      QCheck.(small_int)
      (fun seed ->
        (* Relabeling instances consistently in plan and cost matrix leaves
           the deployment cost unchanged (Definition 4's invariance). *)
        let rng = Prng.create seed in
        let p = random_problem ~nodes:5 ~instances:7 seed in
        let perm = Prng.permutation rng 7 in
        let permuted_costs =
          Array.init 7 (fun j -> Array.init 7 (fun j' ->
              Types.cost p perm.(j) perm.(j')))
        in
        let q = Types.problem ~graph:p.Types.graph ~costs:permuted_costs in
        let plan = Types.random_plan rng p in
        (* inverse permutation of the plan under q equals plan under p *)
        let inv = Array.make 7 0 in
        Array.iteri (fun a b -> inv.(b) <- a) perm;
        let plan_q = Array.map (fun s -> inv.(s)) plan in
        Float.abs (Cost.longest_link p plan -. Cost.longest_link q plan_q) < 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "problem validation" `Quick test_problem_validation;
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "plan validity" `Quick test_plan_validity;
    Alcotest.test_case "identity plan" `Quick test_identity_plan;
    Alcotest.test_case "random plan valid" `Quick test_random_plan_valid;
    Alcotest.test_case "unused instances" `Quick test_unused_instances;
    Alcotest.test_case "longest link values" `Quick test_longest_link_values;
    Alcotest.test_case "longest link witness" `Quick test_longest_link_witness;
    Alcotest.test_case "longest path values" `Quick test_longest_path_values;
    Alcotest.test_case "LP = LL on single edge" `Quick test_longest_path_vs_link_on_single_edge;
    Alcotest.test_case "longest path rejects cycles" `Quick test_longest_path_rejects_cycles;
    Alcotest.test_case "improvement" `Quick test_improvement;
    Alcotest.test_case "metric reductions" `Quick test_metric_reductions;
    Alcotest.test_case "metric strings" `Quick test_metric_strings;
    Alcotest.test_case "metric estimate shape" `Quick test_metric_estimate_shape;
    Alcotest.test_case "metric estimate streams bit-identically" `Quick
      test_metric_estimate_streams_bit_identically;
    Alcotest.test_case "metric ordering" `Quick test_metric_ordering_on_jittery_links;
    Alcotest.test_case "clustering rounds to levels" `Quick test_clustering_rounds_to_levels;
    Alcotest.test_case "clustering none preserves" `Quick test_clustering_none_preserves;
    Alcotest.test_case "clustering clamps k" `Quick test_clustering_clamps_k;
    Alcotest.test_case "clustering ignores non-finite" `Quick
      test_clustering_ignores_non_finite;
    Alcotest.test_case "clustering all non-finite" `Quick test_clustering_all_non_finite;
    Alcotest.test_case "clustering matches the reference" `Quick
      test_clustering_matches_reference;
    Alcotest.test_case "clustering preserves diagonal" `Quick test_clustering_preserves_diagonal;
    Alcotest.test_case "greedy plans valid" `Quick test_greedy_plans_valid;
    Alcotest.test_case "greedy on mesh" `Quick test_greedy_on_mesh;
    Alcotest.test_case "G2 beats G1 on average" `Quick test_g2_beats_g1_on_average;
    Alcotest.test_case "greedy disconnected graph" `Quick test_greedy_handles_disconnected_graph;
    Alcotest.test_case "greedy single node" `Quick test_greedy_single_node;
    Alcotest.test_case "r1 improves with trials" `Quick test_r1_improves_with_trials;
    Alcotest.test_case "r1 consistent cost" `Quick test_r1_returns_consistent_cost;
    Alcotest.test_case "r2 respects time" `Quick test_r2_respects_time;
    Alcotest.test_case "r2 stops cooperatively" `Quick test_r2_stops_cooperatively;
    Alcotest.test_case "brute force optimal" `Quick test_brute_force_is_optimal_exhaustively;
    Alcotest.test_case "brute force longest path" `Quick test_brute_force_longest_path;
    Alcotest.test_case "brute force guard" `Quick test_brute_force_guard;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
