open Cloudia

(* Failure injection and degenerate-input coverage: every solver and
   pipeline stage must behave sensibly on pathological inputs — uniform
   costs, zero costs, extreme asymmetry, near-singular matrices, minimal
   sizes — and reject malformed external data with clear errors. *)

let check_float name ?(tol = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

let cp_fast =
  {
    Cp_solver.clusters = Some 20;
    time_limit = 5.0;
    iteration_time_limit = None;
    use_labeling = true;
    bootstrap_trials = 10;
    symmetry_breaking = true;
  }

(* ---------- Degenerate cost structures ---------- *)

let uniform_problem n m value =
  let graph = Graphs.Templates.mesh2d ~rows:1 ~cols:n in
  let costs =
    Array.init m (fun j -> Array.init m (fun j' -> if j = j' then 0.0 else value))
  in
  Types.problem ~graph ~costs

let test_uniform_costs_all_solvers () =
  (* With all links equal, every injection has the same cost: solvers must
     terminate immediately with that cost, not loop through thresholds. *)
  let p = uniform_problem 4 6 0.5 in
  let cp = Cp_solver.solve ~options:cp_fast (Prng.create 1) p in
  Alcotest.(check bool) "cp proved" true cp.Cp_solver.proven_optimal;
  check_float "cp cost" 0.5 cp.Cp_solver.cost;
  Alcotest.(check int) "cp needs no iterations" 0 cp.Cp_solver.iterations;
  check_float "g1" 0.5 (Cost.longest_link p (Greedy.g1 p));
  check_float "g2" 0.5 (Cost.longest_link p (Greedy.g2 p));
  let _, r1 = Random_search.r1 (Prng.create 2) Cost.Longest_link p ~trials:10 in
  check_float "r1" 0.5 r1

let test_zero_costs () =
  (* A pathological all-zero matrix (e.g. loopback measurements): valid
     input, zero optimal cost everywhere. *)
  let p = uniform_problem 3 4 0.0 in
  let cp = Cp_solver.solve ~options:cp_fast (Prng.create 3) p in
  check_float "zero cost" 0.0 cp.Cp_solver.cost;
  Alcotest.(check bool) "proved" true cp.Cp_solver.proven_optimal;
  let _, bf = Brute_force.solve Cost.Longest_link p in
  check_float "brute force agrees" 0.0 bf

let test_extreme_asymmetry () =
  (* One direction 1000x the other: solvers must respect directionality. *)
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1) ] in
  let costs = [| [| 0.0; 1000.0 |]; [| 1.0; 0.0 |] |] in
  let p = Types.problem ~graph ~costs in
  let plan, cost = Brute_force.solve Cost.Longest_link p in
  (* Only edge is 0 -> 1; the cheap direction requires node 0 on instance
     1 and node 1 on instance 0. *)
  check_float "optimal uses cheap direction" 1.0 cost;
  Alcotest.(check (array int)) "reversed placement" [| 1; 0 |] plan;
  let cp = Cp_solver.solve ~options:{ cp_fast with Cp_solver.clusters = None }
      (Prng.create 4) p in
  check_float "cp agrees" 1.0 cp.Cp_solver.cost

let test_single_node_single_instance () =
  let graph = Graphs.Digraph.create ~n:1 [] in
  let p = Types.problem ~graph ~costs:[| [| 0.0 |] |] in
  let cp = Cp_solver.solve ~options:cp_fast (Prng.create 5) p in
  Alcotest.(check (array int)) "only placement" [| 0 |] cp.Cp_solver.plan;
  check_float "edgeless cost" 0.0 cp.Cp_solver.cost

let test_near_equal_costs_distinct () =
  (* Costs separated by 1e-9 (the Theorem 2/3 setting): the unclustered CP
     must still find the exact optimum. *)
  let graph = Graphs.Templates.ring ~n:3 in
  let base = [| [| 0.0; 1.0; 1.0 |]; [| 1.0; 0.0; 1.0 |]; [| 1.0; 1.0; 0.0 |] |] in
  let p0 = Types.problem ~graph ~costs:base in
  let p = Reduction.distinct_costs (Prng.create 6) p0 in
  let cp =
    Cp_solver.solve ~options:{ cp_fast with Cp_solver.clusters = None } (Prng.create 7) p
  in
  let _, bf = Brute_force.solve Cost.Longest_link p in
  check_float ~tol:1e-12 "exact optimum at 1e-6 separations" bf cp.Cp_solver.cost

let test_huge_cost_range () =
  (* Nine orders of magnitude between cheapest and priciest link: k-means
     clustering and the solvers must not produce NaNs or invalid plans. *)
  let rng = Prng.create 8 in
  let graph = Graphs.Templates.mesh2d ~rows:2 ~cols:2 in
  let m = 6 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' ->
            if j = j' then 0.0 else 1e-6 *. (10.0 ** Prng.float rng 9.0)))
  in
  let p = Types.problem ~graph ~costs in
  let cp = Cp_solver.solve ~options:cp_fast (Prng.create 9) p in
  Alcotest.(check bool) "valid" true (Types.is_valid p cp.Cp_solver.plan);
  Alcotest.(check bool) "finite" true (Float.is_finite cp.Cp_solver.cost)

let test_no_over_allocation_permutation_only () =
  (* |N| = |S|: nothing to terminate, pure re-mapping; every solver must
     still return a (full) permutation. *)
  let rng = Prng.create 10 in
  let graph = Graphs.Templates.mesh2d ~rows:2 ~cols:3 in
  let m = 6 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let cp = Cp_solver.solve ~options:cp_fast (Prng.create 11) p in
  Alcotest.(check (list int)) "nothing unused" [] (Types.unused_instances p cp.Cp_solver.plan);
  Alcotest.(check bool) "g2 full" true (Types.unused_instances p (Greedy.g2 p) = [])

(* ---------- Malformed external data ---------- *)

let codes ds = List.map (fun d -> d.Lint.Diagnostic.code) (Lint.Diagnostic.sort ds)

(* Write [text] to a temporary costs file and read it back through the
   one loader, as every [--costs-file] flag does. *)
let load_text text =
  let path = Filename.temp_file "cloudia-costs" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      Matrix_io.load path)

(* What [plan] does with a costs file: the loader, then the gate's
   errors. A refusal is the error codes, or the loader's message. *)
let admit text =
  match load_text text with
  | Error (`Msg e) -> Error [ e ]
  | Error (`Lint ds) -> Error (codes ds)
  | Ok lat -> (
      match
        Lint.Diagnostic.errors
          (Advisor.gate ~full:false None (Some lat) Cost.Longest_link (Some Solver.Greedy_g1))
      with
      | [] -> Ok lat
      | ds -> Error (codes ds))

let test_matrix_io_roundtrip () =
  let m = [| [| 0.0; 1.25 |]; [| 0.5; 0.0 |] |] in
  match admit (Matrix_io.print (Lat_matrix.of_arrays m)) with
  | Error e -> Alcotest.fail (String.concat "; " e)
  | Ok m' ->
      check_float "entry" 1.25 (Lat_matrix.get m' 0 1);
      check_float "entry" 0.5 (Lat_matrix.get m' 1 0)

let test_matrix_io_rejects_malformed () =
  let cases =
    [
      ("", "empty", None);
      ("0, 1\n2", "ragged", Some "LAT001");
      ("0, 1\nx, 0", "non-numeric", None);
      ("1, 1\n1, 0", "nonzero diagonal", Some "LAT004");
      ("0, -1\n1, 0", "negative", Some "LAT003");
      ("0, nan\n1, 0", "nan", Some "LAT007");
    ]
  in
  List.iter
    (fun (text, what, code) ->
      match (admit text, code) with
      | Ok _, _ -> Alcotest.fail ("accepted " ^ what)
      | Error codes, Some code -> Alcotest.(check (list string)) what [ code ] codes
      | Error _, None -> ())
    cases

let test_matrix_io_comments_and_load () =
  let text = "# comment\n0, 2.5\n2.5, 0\n" in
  (match admit text with
  | Error e -> Alcotest.fail (String.concat "; " e)
  | Ok m -> check_float "value" 2.5 (Lat_matrix.get m 0 1));
  match Matrix_io.load "/nonexistent/path.csv" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* ---------- Measurement edge cases ---------- *)

let ec2 = Cloudsim.Provider.get Cloudsim.Provider.Ec2

let test_measurement_two_instances () =
  let env = Cloudsim.Env.allocate (Prng.create 12) ec2 ~count:2 in
  let tp = Netmeasure.Schemes.token_passing (Prng.create 13) env ~samples_per_pair:5 in
  Alcotest.(check int) "both pairs" 5 tp.Netmeasure.Schemes.samples.(0).(1);
  let st = Netmeasure.Schemes.staged (Prng.create 14) env ~ks:3 ~stages:10 in
  Alcotest.(check bool) "staged sampled something" true
    (st.Netmeasure.Schemes.samples.(0).(1) + st.Netmeasure.Schemes.samples.(1).(0) > 0)

let test_measurement_rejects_single_instance () =
  let env = Cloudsim.Env.allocate (Prng.create 15) ec2 ~count:1 in
  Alcotest.check_raises "uncoordinated"
    (Invalid_argument "Schemes.uncoordinated: need at least two instances")
    (fun () -> ignore (Netmeasure.Schemes.uncoordinated (Prng.create 16) env ~rounds:1));
  Alcotest.check_raises "staged"
    (Invalid_argument "Schemes.staged: need at least two instances")
    (fun () -> ignore (Netmeasure.Schemes.staged (Prng.create 17) env ~ks:1 ~stages:1))

(* ---------- Solver under absurd budgets ---------- *)

let test_cp_zero_time_budget () =
  (* A non-positive budget must still return the bootstrap incumbent, not
     crash or hang. *)
  let rng = Prng.create 18 in
  let graph = Graphs.Templates.mesh2d ~rows:2 ~cols:2 in
  let m = 5 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let p = Types.problem ~graph ~costs in
  let r =
    Cp_solver.solve ~options:{ cp_fast with Cp_solver.time_limit = 0.0 } (Prng.create 19) p
  in
  Alcotest.(check bool) "valid bootstrap plan" true (Types.is_valid p r.Cp_solver.plan);
  Alcotest.(check bool) "not proved" false r.Cp_solver.proven_optimal

let suite =
  [
    Alcotest.test_case "uniform costs all solvers" `Quick test_uniform_costs_all_solvers;
    Alcotest.test_case "zero costs" `Quick test_zero_costs;
    Alcotest.test_case "extreme asymmetry" `Quick test_extreme_asymmetry;
    Alcotest.test_case "single node single instance" `Quick test_single_node_single_instance;
    Alcotest.test_case "near-equal distinct costs" `Quick test_near_equal_costs_distinct;
    Alcotest.test_case "huge cost range" `Quick test_huge_cost_range;
    Alcotest.test_case "no over-allocation" `Quick test_no_over_allocation_permutation_only;
    Alcotest.test_case "matrix io roundtrip" `Quick test_matrix_io_roundtrip;
    Alcotest.test_case "matrix io rejects malformed" `Quick test_matrix_io_rejects_malformed;
    Alcotest.test_case "matrix io comments and load" `Quick test_matrix_io_comments_and_load;
    Alcotest.test_case "measurement two instances" `Quick test_measurement_two_instances;
    Alcotest.test_case "measurement one instance rejected" `Quick
      test_measurement_rejects_single_instance;
    Alcotest.test_case "cp zero time budget" `Quick test_cp_zero_time_budget;
  ]
