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

(* Costs drawn from a few values, +0 and -0 among them: most moves leave
   an edge at a compare-equal cost, and the edge between two swapped
   nodes is reached from both of them. *)
let tied_link_problem seed =
  let rng = Prng.create seed in
  let graph = Graphs.Templates.random_connected rng ~n:6 ~extra_edges:4 in
  let pool = [| 0.0; -0.0; 0.25; 0.5; 0.5; 1.0 |] in
  let costs =
    Array.init 9 (fun j ->
        Array.init 9 (fun j' -> if j = j' then 0.0 else pool.(Prng.int rng (Array.length pool))))
  in
  Types.problem ~graph ~costs

let test_link_equivalence () =
  for seed = 1 to 5 do
    List.iter
      (fun problem ->
        let checked = drive Cost.Longest_link problem (seed + 100) ~steps:300 in
        Alcotest.(check bool) "exercised" true (checked > 100))
      [ link_problem seed; tied_link_problem seed ]
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
   source (the move whose dirty walk starts at position 0), some
   committed and some aborted. Every candidate and every committed cost
   must equal Cost.eval bit for bit. *)
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
  let swaps = ref 0 and relocations = ref 0 and source_moves = ref 0 in
  let commits = ref 0 and aborts = ref 0 in
  for step = 1 to 3000 do
    let node = if step mod 8 = 0 then source else Prng.int rng n in
    let target = if Prng.bool rng then shadow.(Prng.int rng n) else Prng.int rng m in
    if target <> shadow.(node) then begin
      let from = shadow.(node) in
      let other = Delta_cost.occupant kernel target in
      if node = source then incr source_moves;
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
      ("source-node moves", !source_moves);
      ("commits", !commits);
      ("aborts", !aborts);
    ]

(* The dirty walk's work at serve-mix shape: the kernel re-relaxes at
   most half the nodes that re-relaxing the whole suffix from the
   earliest moved node would, counted here from topological positions. *)
let test_path_relaxations_serve_mix_shape () =
  let problem = serve_mix_dag 11 in
  let rng = Prng.create 1111 in
  let n = Types.node_count problem and m = Types.instance_count problem in
  let pos = Array.make n 0 in
  (match Graphs.Digraph.topological_order problem.Types.graph with
  | Some order -> Array.iteri (fun k v -> pos.(v) <- k) order
  | None -> Alcotest.fail "random_dag is acyclic");
  let kernel = Delta_cost.create Cost.Longest_path problem (Types.random_plan rng problem) in
  let suffix = ref 0 and proposals = ref 0 in
  for _ = 1 to 4000 do
    let node = Prng.int rng n and target = Prng.int rng m in
    if target <> Delta_cost.instance_of kernel node then begin
      let first =
        match Delta_cost.occupant kernel target with
        | Some o -> min pos.(node) pos.(o)
        | None -> pos.(node)
      in
      suffix := !suffix + (n - first);
      incr proposals;
      Delta_cost.propose kernel ~node ~target;
      if Prng.bool rng then Delta_cost.commit kernel else Delta_cost.abort kernel
    end
  done;
  let relaxed = Delta_cost.path_relaxations kernel in
  if 2 * relaxed > !suffix then
    Alcotest.failf "%d proposals relaxed %d nodes; the whole suffixes hold %d" !proposals
      relaxed !suffix;
  Delta_cost.flush_counters kernel;
  Alcotest.(check int) "flushed" 0 (Delta_cost.path_relaxations kernel)

(* A warm propose -> commit/abort cycle allocates nothing, on the
   serve-mix LPNDP shape and on an 8x8 mesh over 77 instances (LLNDP):
   the cost is read from [Delta_cost.proposed], so no float crosses a
   call boxed, and neither kernel conses a closure, ref or float of its
   own. The moves are drawn before measuring, so only the kernel runs
   inside the window. *)
let test_path_kernel_allocation_ceiling () =
  let rng = Prng.create 707 in
  let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8 in
  let mesh_problem = Types.of_matrix ~graph:mesh (serve_mix_dag 7).Types.lat in
  List.iter
    (fun (objective, problem) ->
      let n = Types.node_count problem and m = Types.instance_count problem in
      let moves = 1000 in
      let nodes = Array.init moves (fun _ -> Prng.int rng n) in
      let targets = Array.init moves (fun _ -> Prng.int rng m) in
      let keep = Array.init moves (fun _ -> Prng.bool rng) in
      let kernel = Delta_cost.create objective problem (Types.random_plan rng problem) in
      let proposed = Delta_cost.proposed kernel in
      let sum = [| 0.0 |] in
      let cycle () =
        for k = 0 to moves - 1 do
          if targets.(k) <> Delta_cost.instance_of kernel nodes.(k) then begin
            Delta_cost.propose kernel ~node:nodes.(k) ~target:targets.(k);
            sum.(0) <- sum.(0) +. proposed.(0);
            if keep.(k) then Delta_cost.commit kernel else Delta_cost.abort kernel
          end
        done
      in
      cycle ();
      let proposed_before = Delta_cost.proposals kernel in
      let before = Gc.minor_words () in
      cycle ();
      let words = Gc.minor_words () -. before in
      let proposals = Delta_cost.proposals kernel - proposed_before in
      if proposals < 500 then Alcotest.failf "only %d proposals" proposals;
      if words > 0.0 then
        Alcotest.failf "%s: %d proposals allocated %.0f minor words"
          (Cost.objective_to_string objective) proposals words)
    [ (Cost.Longest_path, serve_mix_dag 7); (Cost.Longest_link, mesh_problem) ]

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

(* ---------- the rank table ---------- *)

(* The rank table as it was first built: a float-keyed [Hashtbl] of the
   distinct off-diagonal values, met in a row-major scan, then sorted.
   [Hashtbl] hashes ±0 alike and every NaN alike, and compares keys with
   [compare], so each class of compare-equal cells keeps its first cell
   in row-major order as its value. *)
let hashtbl_ranks lat =
  let m = Lat_matrix.dim lat in
  let seen = Hashtbl.create (m * m) in
  let distinct = ref [] in
  Lat_matrix.iter
    (fun j j' c ->
      if j <> j' && not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        distinct := c :: !distinct
      end)
    lat;
  let values = Array.of_list !distinct in
  Array.sort Float.compare values;
  let rank_of = Hashtbl.create (Array.length values) in
  Array.iteri (fun r v -> Hashtbl.add rank_of v r) values;
  let table =
    Array.init (m * m) (fun k ->
        let j = k / m and j' = k mod m in
        if j = j' then 0 else Hashtbl.find rank_of (Lat_matrix.get lat j j'))
  in
  (values, table)

let nan_payloads =
  Array.map Int64.float_of_bits
    [| 0x7ff8000000000000L; 0x7ff0000000000001L; 0xfff8000000000000L; 0x7ff8dead0000beefL |]

(* Pairs of values whose bits differ only in the lowest byte, or only in
   the highest: the radix sort must order them by the one pass that
   separates them, and skip the passes where every key agrees. *)
let byte_pairs =
  Array.map Int64.float_of_bits
    [|
      0x3ff0000000000000L;
      0x3ff00000000000ffL;
      0x3ff0000000000001L;
      0x40f0000000000000L;
      0xbff0000000000000L;
      0xbff0000000000001L;
      0xc0f0000000000000L;
    |]

(* A cell drawn from a mix of repeats, ±0, NaN payloads, infinities,
   negative values, subnormals, byte pairs and fresh values. *)
let awkward_cell rng =
  match Prng.int rng 12 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> nan_payloads.(Prng.int rng (Array.length nan_payloads))
  | 3 -> if Prng.bool rng then Float.infinity else Float.neg_infinity
  | 4 | 5 -> float_of_int (Prng.int rng 4) *. 0.5
  | 6 -> -.Prng.float rng 2.0
  | 7 ->
      let sub = Int64.float_of_bits (Int64.of_int (1 + Prng.int rng 1000)) in
      if Prng.bool rng then sub else -.sub
  | 8 | 9 -> byte_pairs.(Prng.int rng (Array.length byte_pairs))
  | _ -> Prng.float rng 2.0

let test_ranks_match_hashtbl () =
  let check name lat =
    let values, table = hashtbl_ranks lat in
    let r = Lat_matrix.Ranks.of_matrix lat in
    let got = Lat_matrix.Ranks.values r in
    Alcotest.(check (array int64))
      (name ^ ": values, bit for bit")
      (Array.map Int64.bits_of_float values)
      (Array.map Int64.bits_of_float got);
    Alcotest.(check (array int)) (name ^ ": rank table") table (Lat_matrix.Ranks.table r)
  in
  let rng = Prng.create 2525 in
  for m = 0 to 3 do
    check (Printf.sprintf "%dx%d zeros" m m) (Lat_matrix.create m);
    for trial = 1 to 20 do
      check
        (Printf.sprintf "%dx%d awkward #%d" m m trial)
        (Lat_matrix.init m (fun j j' -> if j = j' then 0.0 else awkward_cell rng))
    done
  done;
  check "77x77 serve-mix shape" (serve_mix_dag 3).Types.lat;
  (* The diagonal is awkward too: it must not count. *)
  for trial = 1 to 20 do
    let m = 4 + Prng.int rng 40 in
    check
      (Printf.sprintf "%dx%d awkward #%d" m m trial)
      (Lat_matrix.init m (fun _ _ -> awkward_cell rng))
  done

(* ---------- golden anneal plans ---------- *)

(* Plans and cost bits of seeded anneals, computed before the rank-only
   kernel, the sort-built rank table and the in-place proposal cost, so
   that those rewrites (and any later one) must keep every plan. LLNDP:
   an 8x8 mesh over 77 instances whose costs are rounded to 1 µs, so
   thousands of cells tie. LPNDP: a 64-node DAG over 77 instances. *)
let golden_ll =
  [
    ( 1,
      "3ffea7ef9db22d0e",
      "47 27 34 71 28 3 36 53 75 74 37 69 67 29 76 73 70 41 20 12 33 24 60 58 8 13 6 21 31 64 \
       49 18 39 56 57 14 17 30 42 50 68 72 0 9 54 32 35 61 5 15 51 19 26 55 46 40 7 65 23 4 22 \
       48 52 10" );
    ( 2,
      "3ffea7ef9db22d0e",
      "32 54 5 60 55 18 30 27 38 28 7 16 56 31 61 35 58 74 63 13 64 73 67 12 37 15 43 69 41 10 \
       53 3 24 49 45 62 21 51 29 19 66 36 20 14 17 34 46 71 68 2 8 72 42 9 50 52 59 57 0 25 1 \
       26 4 76" );
    ( 3,
      "3ffec083126e978d",
      "5 32 22 25 48 40 55 11 76 47 15 49 8 18 70 72 6 52 28 7 56 19 34 67 29 3 21 68 73 64 50 \
       61 71 63 10 20 31 26 36 16 74 57 17 65 12 13 33 9 44 2 53 69 62 60 1 30 4 41 43 46 38 \
       42 35 14" );
  ]

let golden_lp =
  [
    ( 1,
      "401cfecf10f28cdc",
      "45 68 58 46 74 41 20 43 38 66 35 10 21 31 48 23 42 3 1 71 17 57 18 53 37 69 72 70 19 4 \
       65 62 56 26 36 51 33 7 2 73 75 64 15 25 55 28 52 9 8 59 6 11 30 12 32 61 60 63 24 67 13 \
       0 49 50" );
    ( 2,
      "401c4a6617dda823",
      "50 42 31 73 29 15 45 35 74 76 33 65 68 28 22 48 23 32 64 61 4 60 18 10 7 19 49 72 13 21 \
       34 43 58 14 17 70 52 69 75 38 66 47 2 39 44 30 3 27 59 53 5 8 56 1 41 71 12 20 16 6 37 \
       9 57 67" );
    ( 3,
      "401ccce205f74906",
      "41 39 54 49 63 14 6 1 13 37 57 30 44 22 68 4 72 11 61 50 59 60 74 16 20 34 33 9 67 42 \
       24 48 27 47 32 43 29 66 46 8 5 70 12 73 18 75 26 71 35 76 7 2 15 23 65 31 38 19 62 51 \
       64 21 40 0" );
  ]

let golden_matrix ~quantize seed =
  let rng = Prng.create seed in
  Lat_matrix.init 77 (fun i j ->
      if i = j then 0.0
      else
        let c = 0.2 +. Prng.float rng 1.8 in
        if quantize then Float.round (c *. 1000.0) /. 1000.0 else c)

let test_golden_anneal_plans () =
  let run objective moves problem (seed, cost_bits, plan) =
    let options = { Anneal.default_options with time_limit = 600.0; max_moves = Some moves } in
    let r = Anneal.solve_objective ~options (Prng.create seed) objective problem in
    let name = Printf.sprintf "%s seed %d" (Cost.objective_to_string objective) seed in
    Alcotest.(check string) (name ^ " cost bits") cost_bits
      (Printf.sprintf "%Lx" (Int64.bits_of_float r.Anneal.cost));
    Alcotest.(check string) (name ^ " plan") plan
      (String.concat " " (Array.to_list (Array.map string_of_int r.Anneal.plan)))
  in
  let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8 in
  let ll = Types.of_matrix ~graph:mesh (golden_matrix ~quantize:true 25) in
  List.iter (run Cost.Longest_link 20_000 ll) golden_ll;
  let dag = Graphs.Templates.random_dag (Prng.create 25) ~n:64 ~edge_prob:0.08 in
  let lp = Types.of_matrix ~graph:dag (golden_matrix ~quantize:false 26) in
  List.iter (run Cost.Longest_path 4_000 lp) golden_lp

(* ---------- anneal allocation ---------- *)

(* A matrix as serve-mix measures one: 77 EC2 instances. *)
let ec2_matrix seed =
  let rng = Prng.create seed in
  let env =
    Cloudsim.Env.allocate rng (Cloudsim.Provider.get Cloudsim.Provider.Ec2) ~count:77
  in
  Metrics.estimate rng env Metrics.Mean ~samples_per_pair:10

(* A warm anneal at serve-mix shape allocates its kernel, its plans and
   the few words of each temperature step and each improvement, but
   nothing per move: 11.1 k words for the LLNDP solve and 3.3 k for the
   LPNDP one. Before the rank-only kernel and the in-place proposal
   cost they took 96.3 k and 12.9 k, and the LLNDP solve took 14.1 k
   while its kernel built its edge arrays from [Digraph.edges]' tuples
   and consed incident lists. *)
let test_anneal_allocation_ceilings () =
  let lat = ec2_matrix 1 in
  let ranks = Lat_matrix.Ranks.of_matrix lat in
  let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8 in
  let dag = Graphs.Templates.random_dag (Prng.create 5) ~n:64 ~edge_prob:0.08 in
  List.iter
    (fun (objective, graph, moves, gate) ->
      let problem = Types.of_matrix ~graph lat in
      let options = { Anneal.default_options with time_limit = 600.0; max_moves = Some moves } in
      let solve seed =
        Anneal.solve_objective ~options ~ranks (Prng.create seed) objective problem
      in
      ignore (solve 1 : Anneal.result);
      let before = Test_codec.allocated_words () in
      let r = solve 2 in
      let words = Test_codec.allocated_words () -. before in
      Alcotest.(check int) "moves tried" moves r.Anneal.moves_tried;
      if words > gate then
        Alcotest.failf "%s anneal of %d moves: %.0f words, over the %.0f gate"
          (Cost.objective_to_string objective) moves words gate)
    [
      (Cost.Longest_link, mesh, 20_000, 13_000.0); (Cost.Longest_path, dag, 4_000, 8_000.0);
    ]

(* ---------- qcheck properties ---------- *)

(* A random DAG whose costs come from a few rounded values, zero among
   them, so many relaxations tie and propagation often stops early, over
   enough instances that half the moves are relocations to a free one.
   Every candidate and every committed cost must equal Cost.eval bit for
   bit. *)
let drive_tied_path seed =
  let rng = Prng.create seed in
  let n = 5 + Prng.int rng 36 in
  let graph = Graphs.Templates.random_dag rng ~n ~edge_prob:(0.05 +. Prng.float rng 0.3) in
  let m = n + 1 + Prng.int rng 8 in
  let pool = [| 0.0; 0.0; 0.5; 1.0; 1.0; 1.5; 2.0 |] in
  let costs =
    Array.init m (fun j ->
        Array.init m (fun j' -> if j = j' then 0.0 else pool.(Prng.int rng (Array.length pool))))
  in
  let problem = Types.problem ~graph ~costs in
  let shadow = Types.random_plan rng problem in
  let kernel = Delta_cost.create Cost.Longest_path problem shadow in
  let eval = Cost.eval Cost.Longest_path problem in
  check_bits "initial cost" (eval shadow) (Delta_cost.cost kernel);
  for _ = 1 to 200 do
    let node = Prng.int rng n in
    let target =
      if Prng.bool rng then shadow.(Prng.int rng n)
      else
        let free = Types.unused_instances problem shadow in
        List.nth free (Prng.int rng (List.length free))
    in
    if target <> shadow.(node) then begin
      let from = shadow.(node) in
      let other = Delta_cost.occupant kernel target in
      shadow.(node) <- target;
      Option.iter (fun o -> shadow.(o) <- from) other;
      check_bits "candidate" (eval shadow) (Delta_cost.propose_move kernel ~node ~target);
      if Prng.bool rng then Delta_cost.commit kernel
      else begin
        Delta_cost.abort kernel;
        shadow.(node) <- from;
        Option.iter (fun o -> shadow.(o) <- target) other
      end;
      check_bits "committed cost" (eval shadow) (Delta_cost.cost kernel)
    end
  done;
  true

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
    QCheck.Test.make ~name:"path kernel cutoff is exact on tied costs" ~count:60
      QCheck.(small_int)
      (fun seed -> drive_tied_path (seed + 1));
  ]

let suite =
  [
    Alcotest.test_case "link kernel equals full eval" `Quick test_link_equivalence;
    Alcotest.test_case "path kernel equals full eval" `Quick test_path_equivalence;
    Alcotest.test_case "path kernel equals full eval at serve-mix shape" `Quick
      test_path_equivalence_serve_mix_shape;
    Alcotest.test_case "path kernel relaxes under half the suffix" `Quick
      test_path_relaxations_serve_mix_shape;
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
    Alcotest.test_case "ranks match the hashtbl construction" `Quick test_ranks_match_hashtbl;
    Alcotest.test_case "golden anneal plans" `Quick test_golden_anneal_plans;
    Alcotest.test_case "anneal allocation ceilings" `Quick test_anneal_allocation_ceilings;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
