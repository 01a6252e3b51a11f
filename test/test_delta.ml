open Cloudia

(* Tests for the incremental cost-evaluation kernel (Delta_cost), the
   annealing/descent solvers built on it, and the regression fixes to
   Cost.longest_link_witness and Cost.improvement that shipped with it.
   The oracle throughout is a full Cost.eval on a shadow copy of the
   plan. *)

let check_float name ?(tol = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.9f got %.9f" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

let link_problem ?(nodes = 6) ?(instances = 9) seed =
  let rng = Prng.create seed in
  let graph = Graphs.Templates.random_connected rng ~n:nodes ~extra_edges:4 in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

let dag_problem ?(nodes = 8) ?(instances = 11) ?(edge_prob = 0.35) seed =
  let rng = Prng.create seed in
  let graph = Graphs.Templates.random_dag rng ~n:nodes ~edge_prob in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

(* Drive a kernel with a random proposal stream, mirroring every move on
   a shadow plan, and cross-check against Cost.eval after each proposal
   and each commit/abort decision. Returns the number of checks made. *)
let drive objective problem seed ~steps =
  let rng = Prng.create seed in
  let n = Types.node_count problem and m = Types.instance_count problem in
  let shadow = Types.random_plan rng problem in
  let kernel = Delta_cost.create objective problem shadow in
  let eval = Cost.eval objective problem in
  let checked = ref 0 in
  for _ = 1 to steps do
    let node = Prng.int rng n and target = Prng.int rng m in
    if target <> shadow.(node) then begin
      let source = shadow.(node) in
      let other = Delta_cost.occupant kernel target in
      shadow.(node) <- target;
      (match other with Some o -> shadow.(o) <- source | None -> ());
      let candidate = Delta_cost.propose_move kernel ~node ~target in
      check_float "proposal matches full eval" (eval shadow) candidate;
      incr checked;
      if Prng.bool rng then Delta_cost.commit kernel
      else begin
        Delta_cost.abort kernel;
        shadow.(node) <- source;
        match other with Some o -> shadow.(o) <- target | None -> ()
      end;
      check_float "committed cost matches full eval" (eval shadow)
        (Delta_cost.cost kernel);
      Alcotest.(check (array int)) "working plan mirrors shadow" shadow
        (Delta_cost.plan kernel)
    end
  done;
  check_float "final full_cost agrees" (Delta_cost.full_cost kernel)
    (Delta_cost.cost kernel);
  !checked

(* ---------- kernel equivalence ---------- *)

let test_link_equivalence () =
  for seed = 1 to 5 do
    let checked = drive Cost.Longest_link (link_problem seed) (seed + 100) ~steps:300 in
    Alcotest.(check bool) "exercised" true (checked > 100)
  done

let test_path_equivalence () =
  for seed = 1 to 5 do
    let checked = drive Cost.Longest_path (dag_problem seed) (seed + 200) ~steps:300 in
    Alcotest.(check bool) "exercised" true (checked > 100)
  done

(* The serve-mix LPNDP shape: a 64-node sparse DAG over 77 instances,
   so a plan leaves 13 instances free. *)
let serve_mix_dag seed = dag_problem ~nodes:64 ~instances:77 ~edge_prob:0.08 seed

let check_bits name expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h got %h" name expected actual

(* Swaps, relocations to free instances and moves of the topological
   source (prefix 0: the whole DAG is re-relaxed), some committed and
   some aborted. Every candidate and every committed cost must equal
   Cost.eval bit for bit. *)
let test_path_equivalence_serve_mix_shape () =
  let problem = serve_mix_dag 5 in
  let rng = Prng.create 505 in
  let n = Types.node_count problem and m = Types.instance_count problem in
  let source =
    match Graphs.Digraph.topological_order problem.Types.graph with
    | Some order -> order.(0)
    | None -> Alcotest.fail "random_dag is acyclic"
  in
  let shadow = Types.random_plan rng problem in
  let kernel = Delta_cost.create Cost.Longest_path problem shadow in
  let eval = Cost.eval Cost.Longest_path problem in
  check_bits "initial cost" (eval shadow) (Delta_cost.cost kernel);
  let swaps = ref 0 and relocations = ref 0 and commits = ref 0 and aborts = ref 0 in
  for step = 1 to 3000 do
    let node = if step mod 8 = 0 then source else Prng.int rng n in
    let target = if Prng.bool rng then shadow.(Prng.int rng n) else Prng.int rng m in
    if target <> shadow.(node) then begin
      let from = shadow.(node) in
      let other = Delta_cost.occupant kernel target in
      shadow.(node) <- target;
      (match other with
      | Some o ->
          incr swaps;
          shadow.(o) <- from
      | None -> incr relocations);
      check_bits "candidate" (eval shadow) (Delta_cost.propose_move kernel ~node ~target);
      if Prng.int rng 3 = 0 then begin
        incr aborts;
        Delta_cost.abort kernel;
        shadow.(node) <- from;
        match other with Some o -> shadow.(o) <- target | None -> ()
      end
      else begin
        incr commits;
        Delta_cost.commit kernel
      end;
      check_bits "committed cost" (eval shadow) (Delta_cost.cost kernel)
    end
  done;
  Alcotest.(check (array int)) "working plan mirrors shadow" shadow (Delta_cost.plan kernel);
  List.iter
    (fun (what, count) ->
      if count < 100 then Alcotest.failf "only %d %s exercised" count what)
    [
      ("swaps", !swaps);
      ("relocations", !relocations);
      ("prefix-0 fallbacks", Delta_cost.fallback_evals kernel);
      ("commits", !commits);
      ("aborts", !aborts);
    ]

(* A warm propose -> commit/abort cycle on the same shape allocates
   nothing but the float each proposal returns: a function result is
   boxed (2 words) in OCaml's calling convention, and the suffix
   re-relaxation adds no closure, ref or boxed float of its own. The
   moves are drawn before measuring, so only the kernel runs inside the
   window. *)
let test_path_kernel_allocation_ceiling () =
  let problem = serve_mix_dag 7 in
  let rng = Prng.create 707 in
  let n = Types.node_count problem and m = Types.instance_count problem in
  let moves = 1000 in
  let nodes = Array.init moves (fun _ -> Prng.int rng n) in
  let targets = Array.init moves (fun _ -> Prng.int rng m) in
  let keep = Array.init moves (fun _ -> Prng.bool rng) in
  let kernel = Delta_cost.create Cost.Longest_path problem (Types.random_plan rng problem) in
  let cycle () =
    for k = 0 to moves - 1 do
      if targets.(k) <> Delta_cost.instance_of kernel nodes.(k) then begin
        ignore (Delta_cost.propose_move kernel ~node:nodes.(k) ~target:targets.(k) : float);
        if keep.(k) then Delta_cost.commit kernel else Delta_cost.abort kernel
      end
    done
  in
  cycle ();
  let proposed = Delta_cost.proposals kernel in
  let before = Gc.minor_words () in
  cycle ();
  let words = Gc.minor_words () -. before in
  let proposals = Delta_cost.proposals kernel - proposed in
  let returned = 2.0 *. float_of_int proposals in
  if words > returned then
    Alcotest.failf "%d proposals allocated %.0f minor words, %.0f beyond their boxed results"
      proposals words (words -. returned)

let test_opaque_equivalence () =
  (* The arbitrary-eval fallback must obey the same protocol; here with a
     weighted-ish objective the kernel cannot decompose. *)
  let problem = link_problem 7 in
  let eval plan = Cost.longest_link problem plan +. (0.01 *. Cost.eval Cost.Longest_link problem plan) in
  let shadow = Types.random_plan (Prng.create 7) problem in
  let kernel = Delta_cost.create_eval ~eval problem shadow in
  check_float "initial cost" (eval shadow) (Delta_cost.cost kernel);
  let c = Delta_cost.propose_swap kernel 0 1 in
  Alcotest.(check int) "fallback counted" 1 (Delta_cost.fallback_evals kernel);
  Delta_cost.commit kernel;
  check_float "committed" c (Delta_cost.cost kernel)

let test_swap_and_relocate_wrappers () =
  let problem = link_problem 11 in
  let plan = Types.random_plan (Prng.create 11) problem in
  let kernel = Delta_cost.create Cost.Longest_link problem plan in
  let eval = Cost.eval Cost.Longest_link problem in
  (* A swap of two placed nodes. *)
  let shadow = Array.copy plan in
  let tmp = shadow.(0) in
  shadow.(0) <- shadow.(1);
  shadow.(1) <- tmp;
  check_float "swap cost" (eval shadow) (Delta_cost.propose_swap kernel 0 1);
  Delta_cost.abort kernel;
  (* A relocate to a free instance. *)
  let free =
    match Types.unused_instances problem plan with
    | inst :: _ -> inst
    | [] -> Alcotest.fail "expected a free instance"
  in
  let shadow = Array.copy plan in
  shadow.(2) <- free;
  check_float "relocate cost" (eval shadow)
    (Delta_cost.propose_relocate kernel ~node:2 ~target:free);
  Delta_cost.abort kernel;
  check_float "back to initial" (eval plan) (Delta_cost.cost kernel)

let test_protocol_errors () =
  let problem = link_problem 13 in
  let kernel =
    Delta_cost.create Cost.Longest_link problem (Types.random_plan (Prng.create 13) problem)
  in
  Alcotest.check_raises "commit without pending"
    (Invalid_argument "Delta_cost.commit: no pending proposal") (fun () ->
      Delta_cost.commit kernel);
  Alcotest.check_raises "abort without pending"
    (Invalid_argument "Delta_cost.abort: no pending proposal") (fun () ->
      Delta_cost.abort kernel);
  ignore (Delta_cost.propose_swap kernel 0 1 : float);
  Alcotest.check_raises "double propose"
    (Invalid_argument "Delta_cost.propose: a proposal is pending") (fun () ->
      ignore (Delta_cost.propose_swap kernel 2 3 : float));
  Alcotest.check_raises "reset while pending"
    (Invalid_argument "Delta_cost.reset: a proposal is pending") (fun () ->
      Delta_cost.reset kernel (Types.random_plan (Prng.create 14) problem));
  Delta_cost.abort kernel;
  Delta_cost.reset kernel (Types.random_plan (Prng.create 14) problem);
  check_float "reset resynchronizes" (Delta_cost.full_cost kernel) (Delta_cost.cost kernel)

let test_create_rejects_cyclic_for_path () =
  let graph = Graphs.Digraph.create ~n:2 [ (0, 1); (1, 0) ] in
  let costs = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let p = Types.problem ~graph ~costs in
  Alcotest.check_raises "cyclic"
    (Invalid_argument "Delta_cost.create: the longest-path objective needs an acyclic graph")
    (fun () -> ignore (Delta_cost.create Cost.Longest_path p [| 0; 1 |] : Delta_cost.t))

(* ---------- annealing through the kernel ---------- *)

let anneal_options =
  {
    Anneal.default_options with
    Anneal.time_limit = 60.0;
    restarts = 2;
    max_moves = Some 2000;
  }

let test_anneal_delta_matches_full_eval () =
  (* Same seed, same move budget: the kernel-evaluated run and the
     full-eval run draw identical random streams, so the results must be
     bit-identical — the strongest equivalence statement available. *)
  List.iter
    (fun (objective, problem) ->
      let a =
        Anneal.solve_objective ~options:anneal_options (Prng.create 31) objective problem
      in
      let b =
        Anneal.solve ~options:anneal_options (Prng.create 31)
          ~eval:(Cost.eval objective problem) problem
      in
      Alcotest.(check (array int)) "same plan" b.Anneal.plan a.Anneal.plan;
      Alcotest.(check bool) "same cost bit-for-bit" true (a.Anneal.cost = b.Anneal.cost);
      Alcotest.(check int) "same move count" b.Anneal.moves_tried a.Anneal.moves_tried;
      Alcotest.(check int) "same acceptances" b.Anneal.moves_accepted a.Anneal.moves_accepted;
      check_float "reported cost is the plan's true cost"
        (Cost.eval objective problem a.Anneal.plan)
        a.Anneal.cost)
    [
      (Cost.Longest_link, link_problem 17);
      (Cost.Longest_path, dag_problem 17);
    ]

(* ---------- descent and the parallel R2 fixes ---------- *)

let test_descent_reaches_local_optimum () =
  let problem = link_problem ~nodes:5 ~instances:7 19 in
  let plan, cost, restarts =
    Random_search.r2_descent (Prng.create 19) Cost.Longest_link problem ~time_limit:0.5
  in
  Alcotest.(check bool) "valid plan" true (Types.is_valid problem plan);
  Alcotest.(check bool) "at least one restart" true (restarts >= 1);
  check_float "cost is the plan's true cost" (Cost.eval Cost.Longest_link problem plan) cost;
  (* First-improvement descent ran to quiescence: no single swap or
     relocate improves the returned plan. *)
  let kernel = Delta_cost.create Cost.Longest_link problem plan in
  let n = Types.node_count problem and m = Types.instance_count problem in
  for node = 0 to n - 1 do
    for target = 0 to m - 1 do
      if target <> plan.(node) then begin
        let candidate = Delta_cost.propose_move kernel ~node ~target in
        Alcotest.(check bool) "no improving move" true (candidate >= cost -. 1e-12);
        Delta_cost.abort kernel
      end
    done
  done

let test_descent_stop_is_honored () =
  let problem = link_problem 23 in
  let plan, cost, _ =
    Random_search.r2_descent
      ~stop:(fun () -> true)
      (Prng.create 23) Cost.Longest_link problem ~time_limit:60.0
  in
  Alcotest.(check bool) "valid plan despite immediate stop" true
    (Types.is_valid problem plan);
  check_float "cost still true" (Cost.eval Cost.Longest_link problem plan) cost

let test_r2_parallel_threads_stop_and_improvements () =
  let problem = link_problem 29 in
  (* An immediate stop must still return a valid plan quickly. *)
  let plan, _, _ =
    Random_search.r2_parallel ~domains:2
      ~stop:(fun () -> true)
      (Prng.create 29) Cost.Longest_link problem ~time_limit:60.0
  in
  Alcotest.(check bool) "valid under stop" true (Types.is_valid problem plan);
  (* Improvement callbacks see the cross-domain incumbent: costs must be
     strictly decreasing, and each reported plan must match its cost. *)
  let mutex = Mutex.create () in
  let seen = ref [] in
  let on_improve plan cost =
    Mutex.protect mutex (fun () -> seen := (Array.copy plan, cost) :: !seen)
  in
  let plan, cost, trials =
    Random_search.r2_parallel ~domains:2 ~on_improve (Prng.create 31) Cost.Longest_link
      problem ~time_limit:0.2
  in
  Alcotest.(check bool) "valid plan" true (Types.is_valid problem plan);
  Alcotest.(check bool) "trials counted" true (trials > 0);
  let improvements = List.rev !seen in
  Alcotest.(check bool) "at least one improvement" true (improvements <> []);
  List.iter
    (fun (p, c) ->
      check_float "callback cost is its plan's cost"
        (Cost.eval Cost.Longest_link problem p)
        c)
    improvements;
  let rec strictly_decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cross-domain incumbent strictly decreases" true
    (strictly_decreasing improvements);
  (* The final result is at least as good as the last published incumbent. *)
  (match List.rev improvements with
  | (_, last) :: _ -> Alcotest.(check bool) "result <= last incumbent" true (cost <= last)
  | [] -> ())

(* ---------- regression: Cost fixes ---------- *)

let test_witness_on_zero_cost_matrix () =
  (* Regression: with an all-zero cost matrix the witness used to come
     back None (max initialized to 0.0 with a strict comparison); any
     graph with edges must name a witness. *)
  let graph = Graphs.Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let costs = Array.make_matrix 4 4 0.0 in
  let p = Types.problem ~graph ~costs in
  let cost, witness = Cost.longest_link_witness p [| 0; 1; 2 |] in
  check_float "zero cost" 0.0 cost;
  Alcotest.(check bool) "witness present" true (witness <> None);
  (match witness with
  | Some (i, j) ->
      Alcotest.(check bool) "witness is a graph edge" true
        (List.mem (i, j) [ (0, 1); (1, 2) ])
  | None -> ());
  (* An edgeless graph is the only way to get no witness. *)
  let empty = Graphs.Digraph.create ~n:2 [] in
  let p = Types.problem ~graph:empty ~costs in
  let cost, witness = Cost.longest_link_witness p [| 0; 1 |] in
  check_float "edgeless cost" 0.0 cost;
  Alcotest.(check (option (pair int int))) "edgeless witness" None witness

let test_witness_agrees_with_longest_link () =
  for seed = 41 to 46 do
    let p = link_problem seed in
    let plan = Types.random_plan (Prng.create seed) p in
    let cost, witness = Cost.longest_link_witness p plan in
    check_float "witness cost = longest link" (Cost.longest_link p plan) cost;
    match witness with
    | None -> Alcotest.fail "expected a witness on a connected graph"
    | Some (i, j) ->
        check_float "witness edge realizes the cost"
          (Types.cost p plan.(i) plan.(j))
          cost
  done

let test_improvement_guards_non_positive_default () =
  (* Regression: a negative default used to flip the sign of the result;
     any non-positive default now reports 0%. *)
  check_float "negative default" 0.0 (Cost.improvement ~default:(-2.0) ~optimized:1.0);
  check_float "zero default" 0.0 (Cost.improvement ~default:0.0 ~optimized:1.0);
  check_float "positive default unchanged" 25.0
    (Cost.improvement ~default:4.0 ~optimized:3.0)

(* ---------- qcheck properties ---------- *)

let qcheck_props =
  [
    QCheck.Test.make ~name:"delta kernel tracks full eval (longest link)" ~count:30
      QCheck.(small_int)
      (fun seed ->
        let p = link_problem (seed + 1) in
        ignore (drive Cost.Longest_link p (seed + 300) ~steps:120 : int);
        true);
    QCheck.Test.make ~name:"delta kernel tracks full eval (longest path)" ~count:30
      QCheck.(small_int)
      (fun seed ->
        let p = dag_problem (seed + 1) in
        ignore (drive Cost.Longest_path p (seed + 400) ~steps:120 : int);
        true);
  ]

let suite =
  [
    Alcotest.test_case "link kernel equals full eval" `Quick test_link_equivalence;
    Alcotest.test_case "path kernel equals full eval" `Quick test_path_equivalence;
    Alcotest.test_case "path kernel equals full eval at serve-mix shape" `Quick
      test_path_equivalence_serve_mix_shape;
    Alcotest.test_case "path kernel allocation ceiling" `Quick
      test_path_kernel_allocation_ceiling;
    Alcotest.test_case "opaque fallback equivalence" `Quick test_opaque_equivalence;
    Alcotest.test_case "swap and relocate wrappers" `Quick test_swap_and_relocate_wrappers;
    Alcotest.test_case "protocol misuse raises" `Quick test_protocol_errors;
    Alcotest.test_case "cyclic graph rejected for path" `Quick
      test_create_rejects_cyclic_for_path;
    Alcotest.test_case "anneal: delta kernel = full eval, bit-for-bit" `Quick
      test_anneal_delta_matches_full_eval;
    Alcotest.test_case "descent reaches a local optimum" `Quick
      test_descent_reaches_local_optimum;
    Alcotest.test_case "descent honors stop" `Quick test_descent_stop_is_honored;
    Alcotest.test_case "r2_parallel threads stop and improvements" `Quick
      test_r2_parallel_threads_stop_and_improvements;
    Alcotest.test_case "witness on zero-cost matrix (regression)" `Quick
      test_witness_on_zero_cost_matrix;
    Alcotest.test_case "witness agrees with longest link" `Quick
      test_witness_agrees_with_longest_link;
    Alcotest.test_case "improvement guards non-positive default (regression)" `Quick
      test_improvement_guards_non_positive_default;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
