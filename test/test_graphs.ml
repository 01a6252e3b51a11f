(* Tests for the directed graph library: construction, DAG utilities,
   templates, matching, SCC, and compatibility labeling. *)

open Graphs

let check_float name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= 1e-9)

(* ---------- Digraph basics ---------- *)

let test_create_and_query () =
  let g = Digraph.create ~n:4 [ (0, 1); (1, 2); (0, 2); (0, 1) ] in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "dedup edges" 3 (Digraph.edge_count g);
  Alcotest.(check bool) "mem 0->1" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "no 1->0" false (Digraph.mem_edge g 1 0);
  Alcotest.(check (array int)) "out 0" [| 1; 2 |] (Digraph.out_neighbors g 0);
  Alcotest.(check (array int)) "in 2" [| 0; 1 |] (Digraph.in_neighbors g 2);
  Alcotest.(check int) "out-degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in-degree isolated" 0 (Digraph.in_degree g 3)

let test_create_rejects_bad_edges () =
  Alcotest.check_raises "out of range" (Invalid_argument "Digraph.create: edge endpoint out of range")
    (fun () -> ignore (Digraph.create ~n:2 [ (0, 5) ]));
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.create: self-loop")
    (fun () -> ignore (Digraph.create ~n:2 [ (1, 1) ]))

let test_dag_detection () =
  let dag = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let cyc = Digraph.create ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "dag" true (Digraph.is_dag dag);
  Alcotest.(check bool) "cycle" false (Digraph.is_dag cyc)

let test_topological_order () =
  let g = Digraph.create ~n:5 [ (0, 2); (1, 2); (2, 3); (3, 4) ] in
  match Digraph.topological_order g with
  | None -> Alcotest.fail "expected a topological order"
  | Some order ->
      let pos = Array.make 5 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Array.iter
        (fun (u, v) -> Alcotest.(check bool) "edge respects order" true (pos.(u) < pos.(v)))
        (Digraph.edges g)

let test_longest_path_chain () =
  let g = Digraph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check_float "chain sum" 6.0 (Digraph.longest_path g ~weight:(fun _ _ -> 2.0))

let test_longest_path_diamond () =
  (* 0 -> 1 -> 3 (cost 1 + 5), 0 -> 2 -> 3 (cost 2 + 1): longest is 6. *)
  let g = Digraph.create ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let weight u v =
    match (u, v) with
    | 0, 1 -> 1.0
    | 0, 2 -> 2.0
    | 1, 3 -> 5.0
    | 2, 3 -> 1.0
    | _ -> Alcotest.fail "unexpected edge"
  in
  check_float "diamond" 6.0 (Digraph.longest_path g ~weight);
  let value, path = Digraph.longest_path_witness g ~weight in
  check_float "witness value" 6.0 value;
  Alcotest.(check (list int)) "witness path" [ 0; 1; 3 ] path

let test_longest_path_empty_graph_nodes () =
  let g = Digraph.create ~n:3 [] in
  check_float "no edges" 0.0 (Digraph.longest_path g ~weight:(fun _ _ -> 1.0))

let test_longest_path_rejects_cycle () =
  let g = Digraph.create ~n:2 [ (0, 1); (1, 0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Digraph.longest_path: graph has a cycle")
    (fun () -> ignore (Digraph.longest_path g ~weight:(fun _ _ -> 1.0)))

let test_transpose () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed" true (Digraph.mem_edge t 1 0 && Digraph.mem_edge t 2 1);
  Alcotest.(check int) "same count" 2 (Digraph.edge_count t)

let test_map_nodes () =
  let g = Digraph.create ~n:2 [ (0, 1) ] in
  let h = Digraph.map_nodes g (fun v -> v + 3) ~n:6 in
  Alcotest.(check bool) "mapped edge" true (Digraph.mem_edge h 3 4)

let test_connectivity () =
  let conn = Digraph.create ~n:3 [ (0, 1); (2, 1) ] in
  let disc = Digraph.create ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "connected" true (Digraph.is_connected_undirected conn);
  Alcotest.(check bool) "disconnected" false (Digraph.is_connected_undirected disc)

(* ---------- Templates ---------- *)

let test_mesh2d_shape () =
  let g = Templates.mesh2d ~rows:3 ~cols:4 in
  Alcotest.(check int) "nodes" 12 (Digraph.n g);
  (* 2*(3*3 + 2*4) directed edges: horizontal 3 rows × 3, vertical 2 rows × 4. *)
  Alcotest.(check int) "edges" (2 * ((3 * 3) + (2 * 4))) (Digraph.edge_count g);
  Alcotest.(check bool) "corner degree" true (Digraph.out_degree g 0 = 2);
  Alcotest.(check bool) "interior degree" true (Digraph.out_degree g 5 = 4)

let test_mesh3d_shape () =
  let g = Templates.mesh3d ~nx:2 ~ny:2 ~nz:2 in
  Alcotest.(check int) "nodes" 8 (Digraph.n g);
  Alcotest.(check int) "edges" (2 * 12) (Digraph.edge_count g)

let test_torus_regular () =
  let g = Templates.torus2d ~rows:3 ~cols:3 in
  for v = 0 to 8 do
    Alcotest.(check int) "out-degree 4" 4 (Digraph.out_degree g v)
  done

let test_aggregation_tree_shape () =
  let g = Templates.aggregation_tree ~fanout:3 ~depth:2 in
  Alcotest.(check int) "nodes" 13 (Digraph.n g);
  Alcotest.(check int) "edges" 12 (Digraph.edge_count g);
  Alcotest.(check bool) "dag" true (Digraph.is_dag g);
  (* All edges point toward the root: the root has in-degree fanout, out 0. *)
  Alcotest.(check int) "root in" 3 (Digraph.in_degree g 0);
  Alcotest.(check int) "root out" 0 (Digraph.out_degree g 0)

let test_aggregation_tree_depth_zero () =
  let g = Templates.aggregation_tree ~fanout:4 ~depth:0 in
  Alcotest.(check int) "single node" 1 (Digraph.n g);
  Alcotest.(check int) "no edges" 0 (Digraph.edge_count g)

let test_bipartite_shape () =
  let g = Templates.bipartite ~front_ends:3 ~storage:5 in
  Alcotest.(check int) "nodes" 8 (Digraph.n g);
  Alcotest.(check int) "edges" 15 (Digraph.edge_count g);
  Alcotest.(check bool) "dag" true (Digraph.is_dag g);
  for f = 0 to 2 do
    Alcotest.(check int) "front-end fanout" 5 (Digraph.out_degree g f)
  done

let test_ring_and_star () =
  let r = Templates.ring ~n:5 in
  Alcotest.(check int) "ring edges" 5 (Digraph.edge_count r);
  Alcotest.(check bool) "ring not dag" false (Digraph.is_dag r);
  let s = Templates.star ~n:6 in
  Alcotest.(check int) "star edges" 5 (Digraph.edge_count s);
  Alcotest.(check int) "hub degree" 5 (Digraph.out_degree s 0)

let test_hypercube () =
  let g = Templates.hypercube ~dims:3 in
  Alcotest.(check int) "nodes" 8 (Digraph.n g);
  Alcotest.(check int) "edges" (2 * 12) (Digraph.edge_count g);
  for v = 0 to 7 do
    Alcotest.(check int) "regular degree" 3 (Digraph.out_degree g v)
  done

let test_random_dag_is_dag () =
  let rng = Prng.create 5 in
  for _ = 1 to 10 do
    let g = Templates.random_dag rng ~n:20 ~edge_prob:0.3 in
    Alcotest.(check bool) "dag" true (Digraph.is_dag g)
  done

let test_random_connected_is_connected () =
  let rng = Prng.create 6 in
  for _ = 1 to 10 do
    let g = Templates.random_connected rng ~n:15 ~extra_edges:5 in
    Alcotest.(check bool) "connected" true (Digraph.is_connected_undirected g)
  done

(* ---------- Matching ---------- *)

let test_matching_perfect () =
  (* Complete bipartite 3x3 has a perfect matching. *)
  let adj = Array.make 3 [| 0; 1; 2 |] in
  let m = Matching.maximum ~n_left:3 ~n_right:3 ~adj in
  Alcotest.(check int) "size" 3 m.Matching.size;
  Alcotest.(check bool) "perfect" true (Matching.is_perfect_left m)

let test_matching_bottleneck () =
  (* Two left nodes compete for the single right node 0. *)
  let adj = [| [| 0 |]; [| 0 |]; [| 1 |] |] in
  let m = Matching.maximum ~n_left:3 ~n_right:2 ~adj in
  Alcotest.(check int) "size" 2 m.Matching.size;
  Alcotest.(check bool) "not perfect" false (Matching.is_perfect_left m)

let test_matching_consistency () =
  let rng = Prng.create 77 in
  for _ = 1 to 20 do
    let nl = 1 + Prng.int rng 8 and nr = 1 + Prng.int rng 8 in
    let adj =
      Array.init nl (fun _ ->
          Array.of_list
            (List.filter (fun _ -> Prng.bool rng) (List.init nr (fun j -> j))))
    in
    let m = Matching.maximum ~n_left:nl ~n_right:nr ~adj in
    (* pair_left and pair_right must be mutually consistent injections. *)
    Array.iteri
      (fun u v -> if v <> -1 then Alcotest.(check int) "mutual" u m.Matching.pair_right.(v))
      m.Matching.pair_left;
    let matched = Array.fold_left (fun acc v -> if v <> -1 then acc + 1 else acc) 0 m.Matching.pair_left in
    Alcotest.(check int) "size consistent" m.Matching.size matched
  done

(* ---------- Scc ---------- *)

let test_scc_cycle_plus_tail () =
  (* 0 -> 1 -> 2 -> 0 is one SCC; 3 is alone. *)
  let g = Digraph.create ~n:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let comp = Scc.tarjan ~n:4 ~succ:(Digraph.out_neighbors g) in
  Alcotest.(check int) "two components" 2 (Scc.count comp);
  Alcotest.(check bool) "cycle together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  Alcotest.(check bool) "tail separate" true (comp.(3) <> comp.(0))

let test_scc_dag_all_singletons () =
  let g = Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let comp = Scc.tarjan ~n:5 ~succ:(Digraph.out_neighbors g) in
  Alcotest.(check int) "five singletons" 5 (Scc.count comp)

let test_scc_two_cycles () =
  let g = Digraph.create ~n:6 [ (0, 1); (1, 0); (2, 3); (3, 4); (4, 2); (1, 2) ] in
  let comp = Scc.tarjan ~n:6 ~succ:(Digraph.out_neighbors g) in
  Alcotest.(check int) "three components" 3 (Scc.count comp);
  Alcotest.(check bool) "pair cycle" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "triple cycle" true (comp.(2) = comp.(3) && comp.(3) = comp.(4));
  Alcotest.(check bool) "isolated" true (comp.(5) <> comp.(0) && comp.(5) <> comp.(2))

(* ---------- Labeling ---------- *)

let test_labeling_mesh_into_larger_mesh () =
  (* Every node of a 2x2 mesh is degree 2, so it must be compatible with the
     well-connected interior of a 4x4 mesh. *)
  let pattern = Templates.mesh2d ~rows:2 ~cols:2 in
  let target = Templates.mesh2d ~rows:4 ~cols:4 in
  let m = Labeling.compatibility_matrix ~pattern ~target in
  (* Interior node 5 of the 4x4 mesh has degree 4 >= 2 with well-connected
     neighbors: compatible with every pattern node. *)
  for p = 0 to 3 do
    Alcotest.(check bool) "interior compatible" true m.(p).(5)
  done

let test_labeling_excludes_low_degree () =
  (* A star hub of degree 5 cannot map into any node of a 2x3 mesh
     (max degree 3). *)
  let pattern = Templates.star ~n:6 in
  let target = Templates.mesh2d ~rows:2 ~cols:3 in
  let m = Labeling.compatibility_matrix ~pattern ~target in
  for t = 0 to 5 do
    Alcotest.(check bool) "hub incompatible everywhere" false m.(0).(t)
  done

let test_labeling_identity_compatible () =
  let g = Templates.aggregation_tree ~fanout:2 ~depth:3 in
  let m = Labeling.compatibility_matrix ~pattern:g ~target:g in
  for v = 0 to Digraph.n g - 1 do
    Alcotest.(check bool) "self compatible" true m.(v).(v)
  done

let qcheck_props =
  [
    QCheck.Test.make ~name:"longest path >= any single edge weight" ~count:100
      QCheck.(pair small_int (int_range 2 15))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let g = Templates.random_dag rng ~n ~edge_prob:0.3 in
        let w = Array.init n (fun _ -> Array.init n (fun _ -> Prng.float rng 10.0)) in
        let weight u v = w.(u).(v) in
        let lp = Digraph.longest_path g ~weight in
        Array.for_all (fun (u, v) -> lp >= weight u v -. 1e-9) (Digraph.edges g));
    QCheck.Test.make ~name:"transpose twice is identity (edge set)" ~count:100
      QCheck.(pair small_int (int_range 1 15))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let g = Templates.random_dag rng ~n ~edge_prob:0.4 in
        let tt = Digraph.transpose (Digraph.transpose g) in
        Digraph.edges g = Digraph.edges tt);
    QCheck.Test.make ~name:"labeling matches per-neighbour reference" ~count:300
      QCheck.(triple (int_bound 1_000_000) (int_range 1 25) (int_range 0 100))
      (fun (seed, n, density) ->
        let rng = Prng.create seed in
        let edges = ref [] in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v && Prng.int rng 100 < density then edges := (u, v) :: !edges
          done
        done;
        let g = Digraph.create ~n !edges in
        let fast =
          Array.map
            (fun (l : Labeling.label) -> (l.in_deg, l.out_deg, l.neighbor_degrees))
            (Labeling.compute g)
        in
        fast = Cp_reference.Labeling.compute g);
    QCheck.Test.make ~name:"of_predicate builds the same graph as create" ~count:200
      QCheck.(triple (int_bound 1_000_000) (int_range 0 20) (int_range 0 100))
      (fun (seed, n, density) ->
        let rng = Prng.create seed in
        (* half the arcs drawn come with their reverse *)
        let adj = Array.make_matrix n n false in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v && Prng.int rng 100 < density then begin
              adj.(u).(v) <- true;
              if Prng.bool rng then adj.(v).(u) <- true
            end
          done
        done;
        (* each arc listed one to three times, in random order *)
        let pairs = ref [] in
        Array.iteri
          (fun u row ->
            Array.iteri
              (fun v e ->
                if e then
                  for _ = 0 to Prng.int rng 3 do
                    pairs := (Prng.int rng 1_000_000, (u, v)) :: !pairs
                  done)
              row)
          adj;
        let pairs = List.map snd (List.sort compare !pairs) in
        let same n pairs edge =
          let g = Digraph.create ~n pairs and g' = Digraph.of_predicate ~n edge in
          Digraph.edges g = Digraph.edges g'
          && List.for_all
               (fun v -> Digraph.in_neighbors g v = Digraph.in_neighbors g' v)
               (List.init n Fun.id)
        in
        same n pairs (fun u v -> adj.(u).(v)) && same 0 [] (fun _ _ -> true));
    QCheck.Test.make ~name:"matching size bounded by min side" ~count:100
      QCheck.(pair small_int (pair (int_range 1 10) (int_range 1 10)))
      (fun (seed, (nl, nr)) ->
        let rng = Prng.create seed in
        let adj =
          Array.init nl (fun _ ->
              Array.of_list (List.filter (fun _ -> Prng.bool rng) (List.init nr (fun j -> j))))
        in
        let m = Matching.maximum ~n_left:nl ~n_right:nr ~adj in
        m.Matching.size <= min nl nr);
  ]

let suite =
  [
    Alcotest.test_case "create and query" `Quick test_create_and_query;
    Alcotest.test_case "create rejects bad edges" `Quick test_create_rejects_bad_edges;
    Alcotest.test_case "dag detection" `Quick test_dag_detection;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "longest path chain" `Quick test_longest_path_chain;
    Alcotest.test_case "longest path diamond" `Quick test_longest_path_diamond;
    Alcotest.test_case "longest path no edges" `Quick test_longest_path_empty_graph_nodes;
    Alcotest.test_case "longest path rejects cycle" `Quick test_longest_path_rejects_cycle;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "map nodes" `Quick test_map_nodes;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "mesh2d shape" `Quick test_mesh2d_shape;
    Alcotest.test_case "mesh3d shape" `Quick test_mesh3d_shape;
    Alcotest.test_case "torus regular" `Quick test_torus_regular;
    Alcotest.test_case "aggregation tree shape" `Quick test_aggregation_tree_shape;
    Alcotest.test_case "aggregation tree depth 0" `Quick test_aggregation_tree_depth_zero;
    Alcotest.test_case "bipartite shape" `Quick test_bipartite_shape;
    Alcotest.test_case "ring and star" `Quick test_ring_and_star;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "random dag is dag" `Quick test_random_dag_is_dag;
    Alcotest.test_case "random connected is connected" `Quick test_random_connected_is_connected;
    Alcotest.test_case "matching perfect" `Quick test_matching_perfect;
    Alcotest.test_case "matching bottleneck" `Quick test_matching_bottleneck;
    Alcotest.test_case "matching consistency" `Quick test_matching_consistency;
    Alcotest.test_case "scc cycle plus tail" `Quick test_scc_cycle_plus_tail;
    Alcotest.test_case "scc dag singletons" `Quick test_scc_dag_all_singletons;
    Alcotest.test_case "scc two cycles" `Quick test_scc_two_cycles;
    Alcotest.test_case "labeling mesh into larger mesh" `Quick test_labeling_mesh_into_larger_mesh;
    Alcotest.test_case "labeling excludes low degree" `Quick test_labeling_excludes_low_degree;
    Alcotest.test_case "labeling identity compatible" `Quick test_labeling_identity_compatible;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
