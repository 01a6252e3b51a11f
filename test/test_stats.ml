open Stats

(* Tests for summaries, CDFs, error measures, correlation and 1-D k-means. *)

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let check_float name ?tol expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true (feq ?tol expected actual)

(* ---------- Summary ---------- *)

let test_mean () = check_float "mean" 2.5 (Summary.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_variance () =
  check_float "variance" 1.25 (Summary.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_stddev () = check_float "sd" (sqrt 1.25) (Summary.stddev [| 1.0; 2.0; 3.0; 4.0 |])

let test_min_max () =
  check_float "min" (-2.0) (Summary.min [| 3.0; -2.0; 7.0 |]);
  check_float "max" 7.0 (Summary.max [| 3.0; -2.0; 7.0 |])

let test_percentile_interpolation () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Summary.percentile xs 0.0);
  check_float "p100" 40.0 (Summary.percentile xs 100.0);
  check_float "p50" 25.0 (Summary.percentile xs 50.0);
  check_float "p25" 17.5 (Summary.percentile xs 25.0)

let test_percentile_single () = check_float "single" 5.0 (Summary.percentile [| 5.0 |] 73.0)

let test_percentile_unsorted_input () =
  check_float "unsorted" 25.0 (Summary.percentile [| 40.0; 10.0; 30.0; 20.0 |] 50.0)

let test_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary.mean: empty array")
    (fun () -> ignore (Summary.mean [||]))

let test_of_array_consistent () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let s = Summary.of_array xs in
  Alcotest.(check int) "n" 101 s.Summary.n;
  check_float "mean" 50.0 s.Summary.mean;
  check_float "p50" 50.0 s.Summary.p50;
  check_float "p99" 99.0 s.Summary.p99;
  check_float "min" 0.0 s.Summary.min;
  check_float "max" 100.0 s.Summary.max

(* ---------- Cdf ---------- *)

let test_cdf_eval () =
  let c = Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "below" 0.0 (Cdf.eval c 0.5);
  check_float "at 1" 0.25 (Cdf.eval c 1.0);
  check_float "mid" 0.5 (Cdf.eval c 2.5);
  check_float "above" 1.0 (Cdf.eval c 10.0)

let test_cdf_inverse () =
  let c = Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "q=0.25" 1.0 (Cdf.inverse c 0.25);
  check_float "q=0.5" 2.0 (Cdf.inverse c 0.5);
  check_float "q=1" 4.0 (Cdf.inverse c 1.0)

let test_cdf_series_monotone () =
  let rng = Prng.create 1 in
  let c = Cdf.of_samples (Array.init 200 (fun _ -> Prng.uniform rng)) in
  let s = Cdf.series ~points:30 c in
  Alcotest.(check int) "points" 30 (List.length s);
  let rec check_monotone = function
    | (x1, y1) :: ((x2, y2) :: _ as rest) ->
        Alcotest.(check bool) "x increasing" true (x2 > x1);
        Alcotest.(check bool) "y non-decreasing" true (y2 >= y1);
        check_monotone rest
    | _ -> ()
  in
  check_monotone s

(* ---------- Error ---------- *)

let test_normalize_unit () =
  let v = Error.normalize [| 3.0; 4.0 |] in
  check_float "unit norm" 1.0 (sqrt ((v.(0) *. v.(0)) +. (v.(1) *. v.(1))))

let test_rmse_zero_for_equal () = check_float "rmse" 0.0 (Error.rmse [| 1.0; 2.0 |] [| 1.0; 2.0 |])

let test_rmse_known () = check_float "rmse" 5.0 (Error.rmse [| 0.0; 0.0 |] [| 5.0; 5.0 |])

let test_scaling_invariance () =
  (* A uniform multiplicative bias must register as zero error (the paper's
     rationale for normalizing latency vectors before comparison). *)
  let baseline = [| 1.0; 2.0; 3.0; 4.0 |] in
  let scaled = Array.map (fun x -> 2.5 *. x) baseline in
  let errors = Error.normalized_relative_errors ~baseline scaled in
  Array.iter (fun e -> check_float "zero relative error" 0.0 e) errors;
  check_float "zero nrmse" 0.0 (Error.normalized_rmse ~baseline scaled)

let test_relative_error_detects_shape_change () =
  let baseline = [| 1.0; 1.0 |] in
  let skewed = [| 1.0; 2.0 |] in
  let errors = Error.normalized_relative_errors ~baseline skewed in
  Alcotest.(check bool) "nonzero" true (Array.exists (fun e -> e > 0.01) errors)

(* ---------- Correlation ---------- *)

let test_pearson_perfect () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = Array.map (fun v -> (2.0 *. v) +. 1.0) x in
  check_float "r=1" 1.0 (Correlation.pearson x y);
  let neg = Array.map (fun v -> -.v) x in
  check_float "r=-1" (-1.0) (Correlation.pearson x neg)

let test_spearman_monotone () =
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let y = Array.map (fun v -> exp v) x in
  check_float "rho=1 for monotone" 1.0 (Correlation.spearman x y)

let test_kendall_reversed () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = [| 4.0; 3.0; 2.0; 1.0 |] in
  check_float "tau=-1" (-1.0) (Correlation.kendall x y)

let test_pearson_zero_variance_nan () =
  Alcotest.(check bool) "nan" true
    (Float.is_nan (Correlation.pearson [| 1.0; 1.0 |] [| 1.0; 2.0 |]))

(* ---------- Kmeans1d ---------- *)

(* A sample as [Kmeans1d.cluster] takes it: the distinct values
   ascending (each run's first after the sort) and the size of each run. *)
let multiset xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let runs = ref [] in
  Array.iter
    (fun x ->
      match !runs with
      | (v, c) :: rest when x = v -> runs := (v, c + 1) :: rest
      | _ -> runs := (x, 1) :: !runs)
    sorted;
  let runs = Array.of_list (List.rev !runs) in
  (Array.map fst runs, Array.map snd runs)

let kmeans ~k xs =
  let values, counts = multiset xs in
  Kmeans1d.cluster ~k values counts

let test_kmeans_two_obvious_clusters () =
  let xs = [| 1.0; 1.1; 0.9; 10.0; 10.1; 9.9 |] in
  let r = kmeans ~k:2 xs in
  Alcotest.(check int) "two centers" 2 (Array.length r.Kmeans1d.centers);
  check_float ~tol:1e-6 "low center" 1.0 r.Kmeans1d.centers.(0);
  check_float ~tol:1e-6 "high center" 10.0 r.Kmeans1d.centers.(1)

let test_kmeans_k_exceeds_distinct () =
  let xs = [| 1.0; 2.0; 1.0; 2.0 |] in
  let r = kmeans ~k:10 xs in
  Alcotest.(check int) "capped at distinct count" 2 (Array.length r.Kmeans1d.centers);
  check_float "zero cost" 0.0 r.Kmeans1d.cost

let test_kmeans_assign () =
  let xs = [| 1.0; 1.2; 5.0; 5.5 |] in
  let r = kmeans ~k:2 xs in
  check_float ~tol:1e-6 "assign low" 1.1 (Kmeans1d.assign r 0.8);
  check_float ~tol:1e-6 "assign high" 5.25 (Kmeans1d.assign r 6.0)

(* Brute-force optimal contiguous clustering for cross-validation. *)
let brute_force_sse k xs =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let sse lo hi =
    let m = ref 0.0 in
    for i = lo to hi do
      m := !m +. sorted.(i)
    done;
    let m = !m /. float_of_int (hi - lo + 1) in
    let acc = ref 0.0 in
    for i = lo to hi do
      acc := !acc +. ((sorted.(i) -. m) *. (sorted.(i) -. m))
    done;
    !acc
  in
  (* Enumerate all ways to split [0, n) into at most k contiguous runs. *)
  let best = ref infinity in
  let rec go start clusters_left acc =
    if acc >= !best then ()
    else if start = n then (if acc < !best then best := acc)
    else if clusters_left = 0 then ()
    else
      for stop = start to n - 1 do
        go (stop + 1) (clusters_left - 1) (acc +. sse start stop)
      done
  in
  go 0 k 0.0;
  !best

let test_kmeans_matches_brute_force () =
  let rng = Prng.create 99 in
  for _ = 1 to 20 do
    let n = 4 + Prng.int rng 6 in
    let xs = Array.init n (fun _ -> Float.round (Prng.float rng 10.0 *. 10.0) /. 10.0) in
    let k = 1 + Prng.int rng 3 in
    let dp = (kmeans ~k xs).Kmeans1d.cost in
    let bf = brute_force_sse k xs in
    check_float ~tol:1e-6 "dp equals brute force" bf dp
  done

(* Bit-level equality, so the divide-and-conquer DP is held to exactly the
   full DP's floating-point results, not to a tolerance. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let kmeans_bit_identical ~k xs =
  let fast = kmeans ~k xs and full = Cp_reference.Kmeans1d.cluster ~k xs in
  same_bits fast.Kmeans1d.centers full.Kmeans1d.centers
  && same_bits fast.Kmeans1d.boundaries full.Kmeans1d.boundaries
  && same_bits [| fast.Kmeans1d.cost |] [| full.Kmeans1d.cost |]

(* As many values as the off-diagonal link costs of 30 instances (870),
   lognormal and rounded to 3 decimals so that values repeat, clustered
   at k up to past the solver's k = 20. *)
let test_kmeans_matches_full_dp_at_scale () =
  let rng = Prng.create 44 in
  let xs =
    Array.init 870 (fun _ ->
        Float.round (1000.0 *. Prng.lognormal rng ~mu:(-0.5) ~sigma:0.6) /. 1000.0)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "k=%d bit-identical" k) true
        (kmeans_bit_identical ~k xs))
    [ 1; 2; 5; 20; 64 ]

let test_kmeans_rejects_bad_input () =
  let raises values counts =
    match Kmeans1d.cluster ~k:2 values counts with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "descending values" true (raises [| 2.0; 1.0 |] [| 1; 1 |]);
  Alcotest.(check bool) "repeated value" true (raises [| 1.0; 1.0 |] [| 1; 1 |]);
  Alcotest.(check bool) "-0 after +0" true (raises [| -0.0; 0.0 |] [| 1; 1 |]);
  Alcotest.(check bool) "zero count" true (raises [| 1.0; 2.0 |] [| 1; 0 |]);
  Alcotest.(check bool) "negative count" true (raises [| 1.0; 2.0 |] [| -1; 3 |]);
  Alcotest.(check bool) "length mismatch" true (raises [| 1.0; 2.0 |] [| 1 |]);
  Alcotest.(check bool) "infinite value" true (raises [| 1.0; Float.infinity |] [| 1; 1 |]);
  Alcotest.(check bool) "valid input" false (raises [| 1.0; 2.0 |] [| 3; 1 |])

let qcheck_props =
  [
    QCheck.Test.make ~name:"percentile within [min,max]" ~count:300
      QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 40) (float_range (-100.) 100.)) (float_range 0. 100.))
      (fun (xs, p) ->
        let v = Summary.percentile xs p in
        v >= Summary.min xs -. 1e-9 && v <= Summary.max xs +. 1e-9);
    QCheck.Test.make ~name:"cdf eval monotone" ~count:200
      QCheck.(array_of_size (QCheck.Gen.int_range 1 30) (float_range 0. 10.))
      (fun xs ->
        let c = Cdf.of_samples xs in
        let a = Cdf.eval c 3.0 and b = Cdf.eval c 7.0 in
        a <= b);
    (* Weighted multisets with heavy ties: [n] draws from [distinct]
       values on a random scale, k from 1 to past the distinct count. *)
    QCheck.Test.make ~name:"kmeans matches the full DP bit for bit" ~count:1000
      QCheck.(triple (int_bound 1_000_000) (int_range 1 120) (int_range 1 40))
      (fun (seed, n, distinct) ->
        let rng = Prng.create seed in
        let scale = 0.01 +. Prng.float rng 100.0 and offset = Prng.float rng 10.0 in
        let xs =
          Array.init n (fun _ -> offset +. (scale *. float_of_int (Prng.int rng distinct)))
        in
        let d = Kmeans1d.distinct_count xs in
        let k = 1 + Prng.int rng (min 30 (d + 2)) in
        kmeans_bit_identical ~k:1 xs && kmeans_bit_identical ~k xs
        && kmeans_bit_identical ~k:(d + 1) xs);
    QCheck.Test.make ~name:"kmeans cost decreases with k" ~count:100
      QCheck.(array_of_size (QCheck.Gen.int_range 3 25) (float_range 0. 10.))
      (fun xs ->
        let c1 = (kmeans ~k:1 xs).Kmeans1d.cost in
        let c2 = (kmeans ~k:2 xs).Kmeans1d.cost in
        let c3 = (kmeans ~k:3 xs).Kmeans1d.cost in
        c1 >= c2 -. 1e-9 && c2 >= c3 -. 1e-9);
  ]

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "percentile single element" `Quick test_percentile_single;
    Alcotest.test_case "percentile unsorted input" `Quick test_percentile_unsorted_input;
    Alcotest.test_case "empty input raises" `Quick test_empty_raises;
    Alcotest.test_case "of_array consistency" `Quick test_of_array_consistent;
    Alcotest.test_case "cdf eval" `Quick test_cdf_eval;
    Alcotest.test_case "cdf inverse" `Quick test_cdf_inverse;
    Alcotest.test_case "cdf series monotone" `Quick test_cdf_series_monotone;
    Alcotest.test_case "normalize to unit" `Quick test_normalize_unit;
    Alcotest.test_case "rmse zero for equal" `Quick test_rmse_zero_for_equal;
    Alcotest.test_case "rmse known value" `Quick test_rmse_known;
    Alcotest.test_case "scaling invariance of normalized error" `Quick test_scaling_invariance;
    Alcotest.test_case "relative error detects shape change" `Quick
      test_relative_error_detects_shape_change;
    Alcotest.test_case "pearson perfect correlation" `Quick test_pearson_perfect;
    Alcotest.test_case "spearman monotone" `Quick test_spearman_monotone;
    Alcotest.test_case "kendall reversed" `Quick test_kendall_reversed;
    Alcotest.test_case "pearson zero variance is nan" `Quick test_pearson_zero_variance_nan;
    Alcotest.test_case "kmeans two obvious clusters" `Quick test_kmeans_two_obvious_clusters;
    Alcotest.test_case "kmeans k exceeds distinct" `Quick test_kmeans_k_exceeds_distinct;
    Alcotest.test_case "kmeans assign" `Quick test_kmeans_assign;
    Alcotest.test_case "kmeans rejects bad input" `Quick test_kmeans_rejects_bad_input;
    Alcotest.test_case "kmeans matches brute force" `Quick test_kmeans_matches_brute_force;
    Alcotest.test_case "kmeans matches full DP at scale" `Quick
      test_kmeans_matches_full_dp_at_scale;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
