(* Bechamel microbenchmarks of the solver kernels: one Test.make per
   kernel, reported as nanoseconds per run. *)

open Bechamel
open Toolkit

let lp_test =
  (* The Dantzig max example with a few extra rows — a representative
     small LP solve on the production kernel. *)
  let rows =
    [
      ([| 0; 2 |], [| 1.0; 1.0 |], Lp.Simplex.Le, 4.0);
      ([| 1; 2 |], [| 2.0; 0.5 |], Lp.Simplex.Le, 12.0);
      ([| 0; 1 |], [| 3.0; 2.0 |], Lp.Simplex.Le, 18.0);
      ([| 0; 1; 2 |], [| 1.0; 1.0; 1.0 |], Lp.Simplex.Ge, 1.0);
    ]
  in
  Test.make ~name:"lp-solve-small"
    (Staged.stage (fun () ->
         ignore (Lp.Sparse.solve ~objective:[| -3.0; -5.0; -1.0 |] ~rows ())))

let matching_test =
  let rng = Prng.create 1 in
  let n = 40 in
  let adj =
    Array.init n (fun _ ->
        Array.of_list (List.filter (fun _ -> Prng.bool rng) (List.init n (fun j -> j))))
  in
  Test.make ~name:"hopcroft-karp-40x40"
    (Staged.stage (fun () -> ignore (Graphs.Matching.maximum ~n_left:n ~n_right:n ~adj)))

let alldifferent_test =
  Test.make ~name:"alldifferent-propagate-30"
    (Staged.stage (fun () ->
         let csp = Cp.Csp.create ~nvars:30 ~nvalues:35 in
         Cp.Csp.add_alldifferent csp;
         Cp.Csp.restrict csp ~var:0 ~allowed:(fun v -> v < 3);
         Cp.Csp.restrict csp ~var:1 ~allowed:(fun v -> v < 3);
         ignore (Cp.Csp.propagate csp)))

let longest_path_test =
  let g = Graphs.Templates.aggregation_tree ~fanout:3 ~depth:3 in
  let rng = Prng.create 2 in
  let n = Graphs.Digraph.n g in
  let w = Array.init n (fun _ -> Array.init n (fun _ -> Prng.float rng 1.0)) in
  Test.make ~name:"longest-path-40-node-dag"
    (Staged.stage (fun () ->
         ignore (Graphs.Digraph.longest_path g ~weight:(fun u v -> w.(u).(v)))))

let greedy_test =
  let rng = Prng.create 3 in
  let graph = Graphs.Templates.mesh2d ~rows:4 ~cols:4 in
  let m = 18 in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  let problem = Cloudia.Types.problem ~graph ~costs in
  Test.make ~name:"greedy-g2-16-nodes"
    (Staged.stage (fun () -> ignore (Cloudia.Greedy.g2 problem)))

(* The 500 samples as [Kmeans1d.cluster] takes them (distinct values
   ascending, a count for each), built outside the timed closure. *)
let kmeans_test =
  let rng = Prng.create 4 in
  let sorted = Array.init 500 (fun _ -> Prng.float rng 1.0) in
  Array.sort Float.compare sorted;
  let runs =
    Array.fold_left
      (fun runs x ->
        match runs with (v, c) :: rest when x = v -> (v, c + 1) :: rest | _ -> (x, 1) :: runs)
      [] sorted
    |> List.rev |> Array.of_list
  in
  let values = Array.map fst runs and counts = Array.map snd runs in
  Test.make ~name:"kmeans1d-500-values-k20"
    (Staged.stage (fun () -> ignore (Stats.Kmeans1d.cluster ~k:20 values counts)))

(* Matrix-representation kernels: a full row-major sweep of a 64x64
   latency matrix, read either through boxed float array array rows or the
   flat Bigarray-backed Lat_matrix. Both land in bench JSON so the CI perf
   gate can pin each against its committed baseline. *)
let matrix_n = 64

let boxed_matrix =
  let rng = Prng.create 5 in
  Array.init matrix_n (fun j ->
      Array.init matrix_n (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))

let flat_matrix = Lat_matrix.of_arrays boxed_matrix

let matrix_read_boxed_test =
  let m = boxed_matrix in
  Test.make ~name:"matrix-read-boxed-64"
    (Staged.stage (fun () ->
         let acc = ref 0.0 in
         for i = 0 to matrix_n - 1 do
           let row = m.(i) in
           for j = 0 to matrix_n - 1 do
             acc := !acc +. Array.unsafe_get row j
           done
         done;
         ignore (Sys.opaque_identity !acc)))

let matrix_read_flat_test =
  (* The hot-path idiom: hoist the buffer once, then read through the
     bigarray primitive (specializes at the call site, -opaque or not). *)
  let m = Lat_matrix.data flat_matrix in
  Test.make ~name:"matrix-read-flat-64"
    (Staged.stage (fun () ->
         let acc = ref 0.0 in
         for i = 0 to matrix_n - 1 do
           for j = 0 to matrix_n - 1 do
             acc := !acc +. Bigarray.Array2.unsafe_get m i j
           done
         done;
         ignore (Sys.opaque_identity !acc)))

let run () =
  Util.section "Microbenchmarks" "solver kernels (Bechamel, ns/run)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  (* Smoke mode trims the sampling quota — but not below what the CI
     regression band needs for a stable per-kernel estimate. *)
  let quota = if !Util.smoke then 0.1 else 0.5 in
  let limit = if !Util.smoke then 500 else 2000 in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        lp_test;
        matching_test;
        alldifferent_test;
        longest_path_test;
        greedy_test;
        kmeans_test;
        matrix_read_boxed_test;
        matrix_read_flat_test;
      ]
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ t ] ->
          (* "kernels/matrix-read-flat-64" -> micro.matrix-read-flat-64.ns_per_run *)
          let leaf =
            match String.rindex_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          Util.metric (Printf.sprintf "micro.%s.ns_per_run" leaf) t;
          if t > 1_000_000.0 then Printf.printf "  %-32s %10.2f ms/run\n" name (t /. 1e6)
          else if t > 1_000.0 then Printf.printf "  %-32s %10.2f us/run\n" name (t /. 1e3)
          else Printf.printf "  %-32s %10.1f ns/run\n" name t
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    (List.sort compare rows)
