open Lp

(* Tests for the LP kernels and the branch-and-bound MIP solver. The
   "simplex" cases pin down the dense reference tableau
   ([Lp_reference.Dense]); the "sparse" cases hold the production kernel
   to it, and the differential cases run the same branch and bound over
   both. *)

let check_float name ?(tol = 1e-6) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6f got %.6f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ---------- Dense reference simplex ---------- *)

let solve_simplex objective rows = Lp_reference.Dense.solve ~objective ~rows ()

let test_simplex_basic_max () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig
     example, optimum 36 at (2, 6)); we minimize the negation. *)
  let rows =
    [
      ([| 1.0; 0.0 |], Simplex.Le, 4.0);
      ([| 0.0; 2.0 |], Simplex.Le, 12.0);
      ([| 3.0; 2.0 |], Simplex.Le, 18.0);
    ]
  in
  match solve_simplex [| -3.0; -5.0 |] rows with
  | Simplex.Optimal (obj, x) ->
      check_float "objective" (-36.0) obj;
      check_float "x" 2.0 x.(0);
      check_float "y" 6.0 x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  (* min x + y s.t. x + y = 5, x <= 3: optimum 5 (any split). *)
  let rows =
    [ ([| 1.0; 1.0 |], Simplex.Eq, 5.0); ([| 1.0; 0.0 |], Simplex.Le, 3.0) ]
  in
  match solve_simplex [| 1.0; 1.0 |] rows with
  | Simplex.Optimal (obj, x) ->
      check_float "objective" 5.0 obj;
      check_float "sum" 5.0 (x.(0) +. x.(1));
      Alcotest.(check bool) "x within bound" true (x.(0) <= 3.0 +. 1e-9)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_ge_constraints () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1: optimum at (4, 0) -> 8. *)
  let rows =
    [ ([| 1.0; 1.0 |], Simplex.Ge, 4.0); ([| 1.0; 0.0 |], Simplex.Ge, 1.0) ]
  in
  match solve_simplex [| 2.0; 3.0 |] rows with
  | Simplex.Optimal (obj, _) -> check_float "objective" 8.0 obj
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let rows =
    [ ([| 1.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Ge, 2.0) ]
  in
  Alcotest.(check bool) "infeasible" true (solve_simplex [| 1.0 |] rows = Simplex.Infeasible)

let test_simplex_unbounded () =
  (* min -x s.t. x >= 0 (no upper bound): unbounded. *)
  let rows = [ ([| 1.0 |], Simplex.Ge, 0.0) ] in
  Alcotest.(check bool) "unbounded" true (solve_simplex [| -1.0 |] rows = Simplex.Unbounded)

let test_simplex_negative_rhs () =
  (* Row with negative rhs must be flipped correctly: x - y <= -2 means
     y >= x + 2. min y s.t. that and x >= 1 -> y = 3 at x = 1... but x is
     free to be 0, so optimum y = 2. *)
  let rows = [ ([| 1.0; -1.0 |], Simplex.Le, -2.0) ] in
  match solve_simplex [| 0.0; 1.0 |] rows with
  | Simplex.Optimal (obj, _) -> check_float "objective" 2.0 obj
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate () =
  (* A degenerate LP that cycles under naive pivoting (Beale's example). *)
  let rows =
    [
      ([| 0.25; -60.0; -0.04; 9.0 |], Simplex.Le, 0.0);
      ([| 0.5; -90.0; -0.02; 3.0 |], Simplex.Le, 0.0);
      ([| 0.0; 0.0; 1.0; 0.0 |], Simplex.Le, 1.0);
    ]
  in
  match solve_simplex [| -0.75; 150.0; -0.02; 6.0 |] rows with
  | Simplex.Optimal (obj, _) -> check_float "objective" (-0.05) obj
  | _ -> Alcotest.fail "expected optimal (anti-cycling)"

let test_simplex_dimension_mismatch () =
  Alcotest.check_raises "row length" (Invalid_argument "Dense.solve: row length mismatch")
    (fun () -> ignore (solve_simplex [| 1.0; 2.0 |] [ ([| 1.0 |], Simplex.Le, 1.0) ]))

(* ---------- Model ---------- *)

let test_model_relaxation () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:(-3.0) "x" in
  let y = Model.add_var m ~obj:(-5.0) "y" in
  Model.add_constraint m [ (x, 1.0) ] Simplex.Le 4.0;
  Model.add_constraint m [ (y, 2.0) ] Simplex.Le 12.0;
  Model.add_constraint m [ (x, 3.0); (y, 2.0) ] Simplex.Le 18.0;
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, sol) ->
      check_float "objective" (-36.0) obj;
      check_float "x" 2.0 (Model.value sol x);
      check_float "y" 6.0 (Model.value sol y)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check int) "var count" 2 (Model.var_count m);
  Alcotest.(check int) "constraint count" 3 (Model.constraint_count m);
  Alcotest.(check string) "name" "x" (Model.var_name m x)

let test_model_upper_bounds_materialized () =
  let m = Model.create () in
  let x = Model.add_var m ~ub:2.5 ~obj:(-1.0) "x" in
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, sol) ->
      check_float "objective" (-2.5) obj;
      check_float "x at ub" 2.5 (Model.value sol x)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "not integer" false (Model.is_integer m x)

let test_model_lower_bound () =
  let m = Model.create () in
  let x = Model.add_var m ~lb:1.5 ~obj:1.0 "x" in
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, sol) ->
      check_float "objective" 1.5 obj;
      check_float "x at lb" 1.5 (Model.value sol x)
  | _ -> Alcotest.fail "expected optimal")

let test_model_duplicate_terms_summed () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:1.0 "x" in
  (* x + x >= 4 means x >= 2. *)
  Model.add_constraint m [ (x, 1.0); (x, 1.0) ] Simplex.Ge 4.0;
  (match Model.solve_relaxation m with
  | Simplex.Optimal (obj, _) -> check_float "objective" 2.0 obj
  | _ -> Alcotest.fail "expected optimal")

let test_model_extra_rows () =
  let m = Model.create () in
  let x = Model.add_var m ~obj:(-1.0) ~ub:10.0 "x" in
  (match Model.solve_relaxation ~extra:[ (x, Simplex.Le, 3.0) ] m with
  | Simplex.Optimal (obj, _) -> check_float "extra bound respected" (-3.0) obj
  | _ -> Alcotest.fail "expected optimal")

(* ---------- Mip ---------- *)

let test_mip_knapsack () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary: optimum is a + c
     = 17 (b + c = 20: 4+2=6 fits! b=1, c=1 gives 20). *)
  let m = Model.create () in
  let a = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-10.0) "a" in
  let b = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-13.0) "b" in
  let c = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-7.0) "c" in
  Model.add_constraint m [ (a, 3.0); (b, 4.0); (c, 2.0) ] Simplex.Le 6.0;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), stats ->
      check_float "objective" (-20.0) obj;
      check_float "b chosen" 1.0 (Model.value sol b);
      check_float "c chosen" 1.0 (Model.value sol c);
      check_float "a not chosen" 0.0 (Model.value sol a);
      Alcotest.(check bool) "proved" true stats.Mip.proven_optimal
  | _ -> Alcotest.fail "expected optimal"

let test_mip_integer_rounding_matters () =
  (* max x s.t. 2x <= 5, x integer: LP gives 2.5, MIP must give 2. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~obj:(-1.0) "x" in
  Model.add_constraint m [ (x, 2.0) ] Simplex.Le 5.0;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, _), _ -> check_float "objective" (-2.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_mip_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~ub:1.0 "x" in
  Model.add_constraint m [ (x, 1.0) ] Simplex.Ge 2.0;
  match Mip.solve m with
  | Mip.Mip_infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_mip_equality_assignment () =
  (* 2x2 assignment problem as a tiny MIP: min c00 x00 + ... with row and
     column sums = 1. Costs: [[1, 10]; [10, 1]] -> optimal 2 (diagonal). *)
  let m = Model.create () in
  let x = Array.init 2 (fun i -> Array.init 2 (fun j ->
      Model.add_var m ~integer:true ~ub:1.0 (Printf.sprintf "x%d%d" i j)))
  in
  let costs = [| [| 1.0; 10.0 |]; [| 10.0; 1.0 |] |] in
  for i = 0 to 1 do
    for j = 0 to 1 do
      Model.set_obj m x.(i).(j) costs.(i).(j)
    done
  done;
  for i = 0 to 1 do
    Model.add_constraint m [ (x.(i).(0), 1.0); (x.(i).(1), 1.0) ] Simplex.Eq 1.0;
    Model.add_constraint m [ (x.(0).(i), 1.0); (x.(1).(i), 1.0) ] Simplex.Eq 1.0
  done;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), _ ->
      check_float "objective" 2.0 obj;
      check_float "diag" 1.0 (Model.value sol x.(0).(0));
      check_float "diag" 1.0 (Model.value sol x.(1).(1))
  | _ -> Alcotest.fail "expected optimal"

let test_mip_incumbent_callback_fires () =
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-1.0) "x" in
  Model.add_constraint m [ (x, 1.0) ] Simplex.Le 1.0;
  let calls = ref 0 in
  let _ = Mip.solve ~on_incumbent:(fun ~obj:_ ~solution:_ ~elapsed:_ -> incr calls) m in
  Alcotest.(check bool) "callback fired" true (!calls >= 1)

let test_mip_initial_incumbent_prunes () =
  (* With an initial incumbent at the true optimum, the solver should still
     report the optimum (not something worse). *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-1.0) "x" in
  let y = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-1.0) "y" in
  Model.add_constraint m [ (x, 1.0); (y, 1.0) ] Simplex.Le 1.0;
  let seed = (-1.0, [| 1.0; 0.0 |]) in
  match Mip.solve ~initial_incumbent:seed m with
  | Mip.Mip_optimal (obj, _), _ -> check_float "objective" (-1.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_mip_node_limit_reports_feasible () =
  (* A slightly larger knapsack with a node limit of 1 should stop early;
     outcome must be Mip_feasible or Mip_optimal found at the root. *)
  let m = Model.create () in
  let vars =
    Array.init 8 (fun i ->
        Model.add_var m ~integer:true ~ub:1.0 ~obj:(-.float_of_int (i + 1)) (Printf.sprintf "v%d" i))
  in
  Model.add_constraint m (Array.to_list (Array.map (fun v -> (v, 2.0)) vars)) Simplex.Le 7.0;
  match Mip.solve ~node_limit:1 m with
  | (Mip.Mip_feasible _ | Mip.Mip_optimal _ | Mip.Mip_infeasible), stats ->
      Alcotest.(check bool) "explored within limit" true (stats.Mip.nodes_explored <= 1)
  | Mip.Mip_unbounded, _ -> Alcotest.fail "not unbounded"

let test_mip_general_integer () =
  (* min 3x + 4y s.t. x + y >= 5, 2x + y >= 7, integers: LP optimum at
     (2, 3) -> 18 which is integral already. Perturb: x + 2y >= 7 too.
     Check the solver returns an integral optimum. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~obj:3.0 "x" in
  let y = Model.add_var m ~integer:true ~obj:4.0 "y" in
  Model.add_constraint m [ (x, 1.0); (y, 1.0) ] Simplex.Ge 5.0;
  Model.add_constraint m [ (x, 2.0); (y, 1.0) ] Simplex.Ge 7.0;
  Model.add_constraint m [ (x, 1.0); (y, 2.0) ] Simplex.Ge 7.0;
  match Mip.solve m with
  | Mip.Mip_optimal (obj, sol), _ ->
      let xv = Model.value sol x and yv = Model.value sol y in
      Alcotest.(check bool) "x integral" true (Float.abs (xv -. Float.round xv) < 1e-6);
      Alcotest.(check bool) "y integral" true (Float.abs (yv -. Float.round yv) < 1e-6);
      Alcotest.(check bool) "feasible" true (xv +. yv >= 5.0 -. 1e-6);
      check_float "objective" 17.0 obj
      (* (3,2): 3*3+4*2=17, check constraints: 5>=5, 8>=7, 7>=7. *)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_strategies_agree () =
  (* Depth-first and best-first must find the same optimum when allowed to
     finish. *)
  let build () =
    let m = Model.create () in
    let vars =
      Array.init 6 (fun i ->
          Model.add_var m ~integer:true ~ub:1.0 ~obj:(-.float_of_int (7 - i))
            (Printf.sprintf "v%d" i))
    in
    Model.add_constraint m
      (Array.to_list (Array.mapi (fun i v -> (v, float_of_int (i + 2))) vars))
      Simplex.Le 11.0;
    m
  in
  let solve strategy = match Mip.solve ~strategy (build ()) with
    | Mip.Mip_optimal (obj, _), _ -> obj
    | _ -> Alcotest.fail "expected optimal"
  in
  check_float "strategies agree" (solve Mip.Best_first) (solve Mip.Depth_first)

let test_mip_depth_first_finds_incumbent_fast () =
  (* Even with a node limit too small for a proof, depth-first should have
     produced an integer-feasible incumbent by diving. *)
  let m = Model.create () in
  let vars =
    Array.init 10 (fun i ->
        Model.add_var m ~integer:true ~ub:1.0 ~obj:(-.(1.0 +. float_of_int (i mod 3)))
          (Printf.sprintf "v%d" i))
  in
  Model.add_constraint m (Array.to_list (Array.map (fun v -> (v, 2.0)) vars)) Simplex.Le 9.0;
  match Mip.solve ~strategy:Mip.Depth_first ~node_limit:40 m with
  | (Mip.Mip_feasible _ | Mip.Mip_optimal _), _ -> ()
  | Mip.Mip_infeasible, _ -> Alcotest.fail "feasible problem"
  | Mip.Mip_unbounded, _ -> Alcotest.fail "bounded problem"

(* ---------- Sparse revised simplex ---------- *)

let sparse_rows rows =
  List.map
    (fun (coeffs, rel, rhs) ->
      let vars = ref [] and cfs = ref [] in
      Array.iteri
        (fun i c ->
          if c <> 0.0 then begin
            vars := i :: !vars;
            cfs := c :: !cfs
          end)
        coeffs;
      (Array.of_list (List.rev !vars), Array.of_list (List.rev !cfs), rel, rhs))
    rows

let solve_sparse objective rows = Sparse.solve ~objective ~rows:(sparse_rows rows) ()

(* Both kernels on the same fixture: statuses must match, optima must agree,
   and the sparse solution must satisfy the original rows. *)
let check_sparse_agrees name objective rows =
  let dense = solve_simplex objective rows in
  let sp = solve_sparse objective rows in
  match (dense, sp.Sparse.status) with
  | Simplex.Optimal (od, _), Simplex.Optimal (os, x) ->
      check_float (name ^ ": objective") ~tol:1e-7 od os;
      Alcotest.(check bool) (name ^ ": nonneg") true (Array.for_all (fun v -> v >= -1e-7) x);
      List.iter
        (fun (coeffs, rel, rhs) ->
          let lhs = ref 0.0 in
          Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) coeffs;
          let ok =
            match rel with
            | Simplex.Le -> !lhs <= rhs +. 1e-6
            | Simplex.Ge -> !lhs >= rhs -. 1e-6
            | Simplex.Eq -> Float.abs (!lhs -. rhs) <= 1e-6
          in
          Alcotest.(check bool) (name ^ ": sparse solution feasible") true ok)
        rows
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> ()
  | _ -> Alcotest.fail (name ^ ": kernel statuses disagree")

let test_sparse_matches_dense_textbook () =
  check_sparse_agrees "dantzig"
    [| -3.0; -5.0 |]
    [
      ([| 1.0; 0.0 |], Simplex.Le, 4.0);
      ([| 0.0; 2.0 |], Simplex.Le, 12.0);
      ([| 3.0; 2.0 |], Simplex.Le, 18.0);
    ];
  check_sparse_agrees "equality"
    [| 1.0; 1.0 |]
    [ ([| 1.0; 1.0 |], Simplex.Eq, 5.0); ([| 1.0; 0.0 |], Simplex.Le, 3.0) ];
  check_sparse_agrees "ge"
    [| 2.0; 3.0 |]
    [ ([| 1.0; 1.0 |], Simplex.Ge, 4.0); ([| 1.0; 0.0 |], Simplex.Ge, 1.0) ];
  check_sparse_agrees "negative rhs" [| 0.0; 1.0 |] [ ([| 1.0; -1.0 |], Simplex.Le, -2.0) ]

let test_sparse_degenerate_beale () =
  (* The cycling-prone fixture from test_simplex_degenerate: the sparse
     kernel's per-phase Bland switch must terminate it at the same optimum. *)
  check_sparse_agrees "beale"
    [| -0.75; 150.0; -0.02; 6.0 |]
    [
      ([| 0.25; -60.0; -0.04; 9.0 |], Simplex.Le, 0.0);
      ([| 0.5; -90.0; -0.02; 3.0 |], Simplex.Le, 0.0);
      ([| 0.0; 0.0; 1.0; 0.0 |], Simplex.Le, 1.0);
    ]

let test_sparse_statuses () =
  check_sparse_agrees "infeasible" [| 1.0 |]
    [ ([| 1.0 |], Simplex.Le, 1.0); ([| 1.0 |], Simplex.Ge, 2.0) ];
  check_sparse_agrees "unbounded" [| -1.0 |] [ ([| 1.0 |], Simplex.Ge, 1.0) ]

let test_sparse_iteration_budget_aborts () =
  (* Budget exhaustion must surface as the typed Aborted, not a Failure. *)
  Alcotest.check_raises "sparse budget" Simplex.Aborted (fun () ->
      ignore
        (Sparse.solve ~max_iters:1 ~objective:[| -3.0; -5.0 |]
           ~rows:
             (sparse_rows
                [
                  ([| 1.0; 0.0 |], Simplex.Le, 4.0);
                  ([| 0.0; 2.0 |], Simplex.Le, 12.0);
                  ([| 3.0; 2.0 |], Simplex.Le, 18.0);
                ])
           ()))

let test_dense_iteration_budget_aborts () =
  Alcotest.check_raises "dense budget" Simplex.Aborted (fun () ->
      ignore
        (Lp_reference.Dense.solve ~max_iters:1 ~objective:[| -3.0; -5.0 |]
           ~rows:
             [
               ([| 1.0; 0.0 |], Simplex.Le, 4.0);
               ([| 0.0; 2.0 |], Simplex.Le, 12.0);
               ([| 3.0; 2.0 |], Simplex.Le, 18.0);
             ]
           ()))

let assignment_model ?(integer = false) n w =
  let m = Model.create () in
  let x =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Model.add_var m ~integer ~ub:1.0 ~obj:(w i j) (Printf.sprintf "a%d_%d" i j)))
  in
  for i = 0 to n - 1 do
    Model.add_constraint m (List.init n (fun j -> (x.(i).(j), 1.0))) Simplex.Eq 1.0
  done;
  for j = 0 to n - 1 do
    Model.add_constraint m (List.init n (fun i -> (x.(i).(j), 1.0))) Simplex.Le 1.0
  done;
  (m, x)

let test_sparse_dense_bit_identical () =
  (* Pure assignment LP with dyadic costs: both kernels pivot on ±1 entries
     and stay in exact dyadic arithmetic, so the optima must be the same
     bit pattern, not merely close. This is the gate that caught a ratio-test
     bug in the sparse kernel's phase 1. *)
  let w i j = 0.25 *. float_of_int ((((i * 7) + (j * 3)) mod 4) + 1) in
  let m, _ = assignment_model 6 w in
  let dense =
    match Lp_reference.Dense.solve_relaxation m with
    | Simplex.Optimal (obj, _) -> obj
    | _ -> Alcotest.fail "dense: expected optimal"
  in
  let sparse =
    match Model.solve_relaxation m with
    | Simplex.Optimal (obj, _) -> obj
    | _ -> Alcotest.fail "sparse: expected optimal"
  in
  Alcotest.(check int64)
    "objective bits" (Int64.bits_of_float dense) (Int64.bits_of_float sparse)

let test_sparse_warm_basis_matches_cold () =
  (* Branch-and-bound re-solve pattern: optimal basis of the parent, then the
     child adds a bound row. Warm and cold solves of the child must agree. *)
  let w i j = if i = j then 1.0 else 3.0 +. float_of_int ((i + (2 * j)) mod 3) in
  let m, x = assignment_model 4 w in
  let basis =
    match Model.solve_relaxation_basis m with
    | Simplex.Optimal _, b -> b
    | _ -> Alcotest.fail "parent: expected optimal"
  in
  (* Force the first (diagonal, hence basic) variable out of the plan. *)
  let extra = [ (x.(0).(0), Simplex.Le, 0.0) ] in
  let warm =
    match fst (Model.solve_relaxation_basis ~extra ~warm_basis:basis m) with
    | Simplex.Optimal (obj, _) -> obj
    | _ -> Alcotest.fail "warm child: expected optimal"
  in
  let cold =
    match Model.solve_relaxation ~extra m with
    | Simplex.Optimal (obj, _) -> obj
    | _ -> Alcotest.fail "cold child: expected optimal"
  in
  check_float "warm equals cold" ~tol:1e-9 cold warm

let test_sparse_warm_infeasible_branch () =
  (* A child whose branch row contradicts an upper bound: the warm dual
     repair (or its cold fallback) must prove infeasibility, not loop. *)
  let m = Model.create () in
  let x = Model.add_var m ~ub:3.0 ~obj:1.0 "x" in
  let y = Model.add_var m ~ub:3.0 ~obj:1.0 "y" in
  Model.add_constraint m [ (x, 1.0); (y, 1.0) ] Simplex.Ge 2.0;
  let basis =
    match Model.solve_relaxation_basis m with
    | Simplex.Optimal _, b -> b
    | _ -> Alcotest.fail "parent: expected optimal"
  in
  let extra = [ (x, Simplex.Ge, 5.0) ] in
  match fst (Model.solve_relaxation_basis ~extra ~warm_basis:basis m) with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible child"

let test_mip_reference_equivalence () =
  (* Mip.solve on the production kernel must reproduce the optima of the
     same branch and bound over the dense reference kernel. *)
  let m = Model.create () in
  let a = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-10.0) "a" in
  let b = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-13.0) "b" in
  let c = Model.add_var m ~integer:true ~ub:1.0 ~obj:(-7.0) "c" in
  Model.add_constraint m [ (a, 3.0); (b, 4.0); (c, 2.0) ] Simplex.Le 6.0;
  List.iter
    (fun (path, outcome) ->
      match outcome with
      | Mip.Mip_optimal (obj, sol), stats ->
          check_float (path ^ " knapsack objective") (-20.0) obj;
          check_float (path ^ " b chosen") 1.0 (Model.value sol b);
          check_float (path ^ " c chosen") 1.0 (Model.value sol c);
          Alcotest.(check bool) (path ^ " proved") true stats.Mip.proven_optimal
      | _ -> Alcotest.fail (path ^ " knapsack: expected optimal"))
    [ ("sparse", Mip.solve m); ("dense", Lp_reference.Mip.solve m) ];
  let m2, _ = assignment_model ~integer:true 3 (fun i j -> if i = j then 1.0 else 10.0) in
  match (Mip.solve m2, Lp_reference.Mip.solve m2) with
  | (Mip.Mip_optimal (os, _), _), (Mip.Mip_optimal (od, _), _) ->
      check_float "assignment sparse vs dense" ~tol:1e-9 od os
  | _ -> Alcotest.fail "assignment: expected optimal on both paths"

(* ---------- Differential: one branch and bound, two LP kernels ---------- *)

(* The paper's MIP encodings, built as Cloudia.Mip_solver builds them:
   assignment rows over an m x m padded x, then the linearized max
   c >= CL(j,j')(x_ij + x_i'j' - 1) per edge for LLNDP, or per-edge cost
   and longest-prefix rows under t for LPNDP. Returns the model and the
   decoder from a solution vector to a plan. *)
let deployment_model objective (p : Cloudia.Types.problem) =
  let n = Cloudia.Types.node_count p and m = Cloudia.Types.instance_count p in
  let edges = Graphs.Digraph.edges p.Cloudia.Types.graph in
  let model = Model.create () in
  let x =
    Array.init m (fun i ->
        Array.init m (fun j -> Model.add_var model ~integer:true ~ub:1.0 (Printf.sprintf "x%d_%d" i j)))
  in
  (* The variable each edge's linearized max bounds, and for LPNDP the
     longest-prefix variables t_i and their maximum t. *)
  let edge_var, prefix =
    match objective with
    | Cloudia.Cost.Longest_link ->
        let c = Model.add_var model ~obj:1.0 "c" in
        ((fun _ -> c), None)
    | Cloudia.Cost.Longest_path ->
        let e = Array.mapi (fun k _ -> Model.add_var model (Printf.sprintf "e%d" k)) edges in
        let t = Array.init n (fun i -> Model.add_var model (Printf.sprintf "t%d" i)) in
        let t_max = Model.add_var model ~obj:1.0 "t" in
        ((fun k -> e.(k)), Some (t, t_max))
  in
  for j = 0 to m - 1 do
    Model.add_constraint model (List.init m (fun i -> (x.(i).(j), 1.0))) Simplex.Eq 1.0
  done;
  for i = 0 to m - 1 do
    Model.add_constraint model (List.init m (fun j -> (x.(i).(j), 1.0))) Simplex.Eq 1.0
  done;
  Array.iteri
    (fun k (i, i') ->
      for j = 0 to m - 1 do
        for j' = 0 to m - 1 do
          let c = Lat_matrix.get p.Cloudia.Types.lat j j' in
          if j <> j' && c > 0.0 then
            Model.add_constraint model
              [ (x.(i).(j), c); (x.(i').(j'), c); (edge_var k, -1.0) ]
              Simplex.Le c
        done
      done;
      match prefix with
      | Some (t, _) ->
          Model.add_constraint model [ (t.(i), 1.0); (t.(i'), -1.0); (edge_var k, 1.0) ] Simplex.Le 0.0
      | None -> ())
    edges;
  (match prefix with
  | Some (t, t_max) ->
      Array.iter (fun ti -> Model.add_constraint model [ (ti, 1.0); (t_max, -1.0) ] Simplex.Le 0.0) t
  | None -> ());
  let plan sol =
    Array.init n (fun i ->
        let found = ref (-1) in
        for j = 0 to m - 1 do
          if Model.value sol x.(i).(j) > 0.5 then found := j
        done;
        !found)
  in
  (model, plan)

(* Up to 4 nodes on up to 6 instances, so Brute_force is the oracle;
   costs are multiples of 1/4, so every cost is exact in binary. LPNDP
   graphs only point forward (a DAG). *)
let random_deployment rng objective =
  let n = 2 + Prng.int rng 3 in
  let m = n + Prng.int rng 3 in
  let forward = objective = Cloudia.Cost.Longest_path in
  let edges = ref [ (0, 1) ] in
  for i = 0 to n - 1 do
    for i' = 0 to n - 1 do
      if i <> i' && (i, i') <> (0, 1) && ((not forward) || i < i') && Prng.int rng 3 = 0 then
        edges := (i, i') :: !edges
    done
  done;
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else 0.25 *. float_of_int (1 + Prng.int rng 8)))
  in
  Cloudia.Types.problem ~graph:(Graphs.Digraph.create ~n !edges) ~costs

(* Every returned point satisfies every row of the relaxation it came
   from, is non-negative, and is integral on the integer variables. *)
let mip_point_feasible model sol =
  let _, rows = Model.relaxation_lp model in
  Array.for_all (fun v -> v >= -1e-9) sol
  && List.for_all
       (fun (vars, coeffs, rel, rhs) ->
         let lhs = ref 0.0 in
         Array.iteri (fun k v -> lhs := !lhs +. (coeffs.(k) *. sol.(v))) vars;
         match rel with
         | Simplex.Le -> !lhs <= rhs +. 1e-6
         | Simplex.Ge -> !lhs >= rhs -. 1e-6
         | Simplex.Eq -> Float.abs (!lhs -. rhs) <= 1e-6)
       rows
  && List.for_all
       (fun v ->
         let x = Model.value sol v in
         Float.abs (x -. Float.round x) <= 1e-6)
       (Model.integer_vars model)

(* A relaxation that logs each LP it solves, oldest last: its branch rows
   and its status. One application, one log. *)
module Logged (R : Mip.RELAXATION) = struct
  let log = ref []

  let solve_relaxation_basis ?should_stop ?(extra = []) ?warm_basis m =
    let ((status, _) as r) = R.solve_relaxation_basis ?should_stop ~extra ?warm_basis m in
    log := (extra, status) :: !log;
    r
end

(* The same node-limited branch and bound over the production kernel and
   over the dense reference, on random LLNDP and LPNDP encodings. The
   deployment LPs are degenerate: most have several optimal vertices, and
   the two kernels need not pick the same one, after which the searches
   branch differently. So the two node logs are walked in step up to the
   first node whose branch rows or LP point differ, and every node up to
   and including it must have the same status and the same LP objective
   (within 1e-9): the divergence is a tie between equal-cost LP optima.
   Searches that never diverge must return the same plan. Every returned
   point must be feasible, and every proof of optimality must give
   Brute_force's cost to the bit. *)
let test_mip_differential () =
  let bits = Int64.bits_of_float in
  for seed = 0 to 47 do
    let objective =
      if seed mod 2 = 0 then Cloudia.Cost.Longest_link else Cloudia.Cost.Longest_path
    in
    let p = random_deployment (Prng.create (500 + seed)) objective in
    let model, plan_of = deployment_model objective p in
    let name fmt = Printf.sprintf ("seed %d: " ^^ fmt) seed in
    let cost plan = Cloudia.Cost.eval objective p plan in
    let optimum = lazy (snd (Cloudia.Brute_force.solve objective p)) in
    let point kernel = function
      | Mip.Mip_optimal (obj, sol), stats | Mip.Mip_feasible (obj, sol), stats ->
          Alcotest.(check bool) (name "%s point feasible" kernel) true (mip_point_feasible model sol);
          let plan = plan_of sol in
          if stats.Mip.proven_optimal then
            Alcotest.(check int64) (name "%s proof = brute force" kernel)
              (bits (Lazy.force optimum)) (bits (cost plan));
          (obj, plan)
      | (Mip.Mip_infeasible | Mip.Mip_unbounded), _ ->
          Alcotest.fail (name "%s: a deployment always exists" kernel)
    in
    let module S = Logged (Model) in
    let module D = Logged (Lp_reference.Dense) in
    let module Sparse_mip = Mip.Make (S) in
    let module Dense_mip = Mip.Make (D) in
    let sparse_obj, sparse_plan = point "sparse" (Sparse_mip.solve ~node_limit:40 model) in
    let dense_obj, dense_plan = point "dense" (Dense_mip.solve ~node_limit:40 model) in
    let same_lp k a b =
      match (a, b) with
      | Simplex.Optimal (oa, xa), Simplex.Optimal (ob, xb) ->
          check_float (name "LP %d objective" k) ~tol:1e-9 oa ob;
          Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-9) xa xb
      | Simplex.Infeasible, Simplex.Infeasible -> true
      | _ -> Alcotest.fail (name "LP %d: statuses differ" k)
    in
    let rec walk k = function
      | (ea, sa) :: ta, (eb, sb) :: tb ->
          ea = eb && same_lp k sa sb && walk (k + 1) (ta, tb)
      | [], [] -> true
      | _ -> Alcotest.fail (name "node logs end apart with no divergence")
    in
    if walk 0 (List.rev !(S.log), List.rev !(D.log)) then begin
      Alcotest.(check (array int)) (name "same search, same plan") dense_plan sparse_plan;
      check_float (name "same search, same objective") ~tol:1e-9 dense_obj sparse_obj
    end
  done

let random_lp rng nvars nrows =
  let objective = Array.init nvars (fun _ -> Prng.float rng 10.0 -. 5.0) in
  let rows =
    List.init nrows (fun _ ->
        let coeffs = Array.init nvars (fun _ -> Prng.float rng 4.0 -. 2.0) in
        let rel = if Prng.bool rng then Simplex.Le else Simplex.Ge in
        (coeffs, rel, Prng.float rng 10.0 -. 2.0))
  in
  (objective, rows)

let qcheck_props =
  [
    QCheck.Test.make ~name:"simplex optimal solutions are feasible" ~count:150
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let nvars = 1 + Prng.int rng 4 and nrows = 1 + Prng.int rng 5 in
        let objective, rows = random_lp rng nvars nrows in
        match solve_simplex objective rows with
        | Simplex.Optimal (obj, x) ->
            (* Every constraint satisfied, all vars non-negative, and the
               reported objective matches the solution. *)
            Array.for_all (fun v -> v >= -1e-7) x
            && List.for_all
                 (fun (coeffs, rel, rhs) ->
                   let lhs = ref 0.0 in
                   Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) coeffs;
                   match rel with
                   | Simplex.Le -> !lhs <= rhs +. 1e-6
                   | Simplex.Ge -> !lhs >= rhs -. 1e-6
                   | Simplex.Eq -> Float.abs (!lhs -. rhs) <= 1e-6)
                 rows
            && Float.abs
                 (obj
                 -. Array.fold_left ( +. ) 0.0 (Array.mapi (fun i c -> c *. x.(i)) objective))
               <= 1e-6
        | Simplex.Infeasible | Simplex.Unbounded -> true);
    QCheck.Test.make ~name:"sparse kernel agrees with dense" ~count:150
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let nvars = 1 + Prng.int rng 4 and nrows = 1 + Prng.int rng 5 in
        let objective, rows = random_lp rng nvars nrows in
        let sp = solve_sparse objective rows in
        match (solve_simplex objective rows, sp.Sparse.status) with
        | Simplex.Optimal (od, _), Simplex.Optimal (os, _) -> Float.abs (od -. os) <= 1e-5
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | Simplex.Unbounded, Simplex.Unbounded -> true
        | _ -> false);
    QCheck.Test.make ~name:"MIP solutions are integral and feasible" ~count:60
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let m = Model.create () in
        let nvars = 2 + Prng.int rng 3 in
        let vars =
          Array.init nvars (fun i ->
              Model.add_var m ~integer:true ~ub:3.0
                ~obj:(Prng.float rng 4.0 -. 2.0)
                (Printf.sprintf "v%d" i))
        in
        let weights = Array.map (fun v -> (v, Prng.float rng 3.0)) vars in
        let cap = 1.0 +. Prng.float rng 6.0 in
        Model.add_constraint m (Array.to_list weights) Simplex.Le cap;
        match Mip.solve ~time_limit:5.0 m with
        | Mip.Mip_optimal (_, sol), _ | Mip.Mip_feasible (_, sol), _ ->
            Array.for_all
              (fun v ->
                let x = Model.value sol v in
                Float.abs (x -. Float.round x) <= 1e-6 && x >= -1e-7 && x <= 3.0 +. 1e-6)
              vars
        | Mip.Mip_infeasible, _ -> false (* x = 0 is always feasible *)
        | Mip.Mip_unbounded, _ -> false);
    QCheck.Test.make ~name:"MIP optimum >= LP relaxation bound" ~count:50
      QCheck.(small_int)
      (fun seed ->
        let rng = Prng.create seed in
        let m = Model.create () in
        let n = 3 + Prng.int rng 3 in
        let vars =
          Array.init n (fun i ->
              Model.add_var m ~integer:true ~ub:1.0
                ~obj:(-.(1.0 +. Prng.float rng 9.0))
                (Printf.sprintf "v%d" i))
        in
        let weights = Array.map (fun v -> (v, 1.0 +. Prng.float rng 4.0)) vars in
        let cap = 2.0 +. Prng.float rng 8.0 in
        Model.add_constraint m (Array.to_list weights) Simplex.Le cap;
        let lp_bound =
          match Model.solve_relaxation m with
          | Simplex.Optimal (b, _) -> b
          | _ -> QCheck.assume_fail ()
        in
        match Mip.solve m with
        | Mip.Mip_optimal (obj, _), _ -> obj >= lp_bound -. 1e-6
        | Mip.Mip_infeasible, _ -> false
        | _ -> true);
  ]

let suite =
  [
    Alcotest.test_case "simplex basic max" `Quick test_simplex_basic_max;
    Alcotest.test_case "simplex equality" `Quick test_simplex_equality;
    Alcotest.test_case "simplex >= constraints" `Quick test_simplex_ge_constraints;
    Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex negative rhs" `Quick test_simplex_negative_rhs;
    Alcotest.test_case "simplex degenerate (Beale)" `Quick test_simplex_degenerate;
    Alcotest.test_case "simplex dimension mismatch" `Quick test_simplex_dimension_mismatch;
    Alcotest.test_case "model relaxation" `Quick test_model_relaxation;
    Alcotest.test_case "model upper bounds" `Quick test_model_upper_bounds_materialized;
    Alcotest.test_case "model lower bound" `Quick test_model_lower_bound;
    Alcotest.test_case "model duplicate terms" `Quick test_model_duplicate_terms_summed;
    Alcotest.test_case "model extra rows" `Quick test_model_extra_rows;
    Alcotest.test_case "mip knapsack" `Quick test_mip_knapsack;
    Alcotest.test_case "mip integer rounding" `Quick test_mip_integer_rounding_matters;
    Alcotest.test_case "mip infeasible" `Quick test_mip_infeasible;
    Alcotest.test_case "mip assignment" `Quick test_mip_equality_assignment;
    Alcotest.test_case "mip incumbent callback" `Quick test_mip_incumbent_callback_fires;
    Alcotest.test_case "mip initial incumbent" `Quick test_mip_initial_incumbent_prunes;
    Alcotest.test_case "mip node limit" `Quick test_mip_node_limit_reports_feasible;
    Alcotest.test_case "mip general integer" `Quick test_mip_general_integer;
    Alcotest.test_case "mip strategies agree" `Quick test_mip_strategies_agree;
    Alcotest.test_case "mip depth-first incumbent" `Quick test_mip_depth_first_finds_incumbent_fast;
    Alcotest.test_case "sparse matches dense textbook" `Quick test_sparse_matches_dense_textbook;
    Alcotest.test_case "sparse degenerate (Beale)" `Quick test_sparse_degenerate_beale;
    Alcotest.test_case "sparse statuses" `Quick test_sparse_statuses;
    Alcotest.test_case "sparse iteration budget aborts" `Quick test_sparse_iteration_budget_aborts;
    Alcotest.test_case "dense iteration budget aborts" `Quick test_dense_iteration_budget_aborts;
    Alcotest.test_case "sparse/dense bit-identical" `Quick test_sparse_dense_bit_identical;
    Alcotest.test_case "sparse warm basis" `Quick test_sparse_warm_basis_matches_cold;
    Alcotest.test_case "sparse warm infeasible branch" `Quick test_sparse_warm_infeasible_branch;
    Alcotest.test_case "mip reference equivalence" `Quick test_mip_reference_equivalence;
    Alcotest.test_case "mip differential vs reference" `Quick test_mip_differential;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
