open Cloudia

(* Tests for the parallel solver portfolio ({!Solver.Portfolio}):
   determinism of iteration-capped member sets, optimality via the
   shared-incumbent CP member, merged-trace monotonicity, cooperative
   cancellation, and argument validation. Problems are tiny so the domains
   finish in milliseconds even on one core. *)

let random_problem ?(nodes = 5) ?(instances = 7) ?(extra_edges = 3) seed =
  let rng = Prng.create seed in
  let graph = Graphs.Templates.random_connected rng ~n:nodes ~extra_edges in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

let tree_problem seed instances =
  let graph = Graphs.Templates.aggregation_tree ~fanout:2 ~depth:1 in
  let rng = Prng.create seed in
  let costs =
    Array.init instances (fun j ->
        Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))
  in
  Types.problem ~graph ~costs

(* Every member here exhausts a fixed iteration budget (greedy is a pure
   function; R1 and annealing are capped), so the portfolio's outcome is a
   deterministic function of seed + member list no matter how the domains
   interleave. The generous time limit must never fire first. *)
let capped_members =
  [
    Solver.Greedy_g1;
    Solver.Greedy_g2;
    Solver.Random_r1 300;
    Solver.Anneal
      { Anneal.default_options with Anneal.time_limit = 60.0; max_moves = Some 2000 };
  ]

let capped = { Solver.members = capped_members; time_limit = 60.0; share_incumbent = true }

let race ?(objective = Cost.Longest_link) portfolio seed p =
  Solver.run (Solver.Portfolio portfolio) (Prng.create seed) objective p

let roster ~objective ~domains =
  match Solver.portfolio ~objective ~domains ~time_limit:30.0 with
  | Solver.Portfolio r -> r
  | _ -> Alcotest.fail "Solver.portfolio must build a portfolio"

let test_portfolio_deterministic () =
  let p = random_problem 11 in
  let run () = race capped 7 p in
  let a = run () and b = run () in
  Alcotest.(check (array int)) "same plan" a.Solver.plan b.Solver.plan;
  Alcotest.(check (float 0.0)) "same cost" a.Solver.cost b.Solver.cost;
  Alcotest.(check (option int)) "same winner" a.Solver.winner b.Solver.winner;
  Alcotest.(check bool) "every member finished" true (a.Solver.stop_reason = Solver.Finished);
  List.iter2
    (fun (ma : Solver.member) (mb : Solver.member) ->
      Alcotest.(check (float 0.0)) "same member best" ma.member_cost mb.member_cost;
      Alcotest.(check int) "same member effort" ma.iterations mb.iterations)
    a.Solver.members b.Solver.members

let test_portfolio_matches_brute_force () =
  (* With an exact CP member the portfolio must land on the true optimum
     and report it proven, regardless of what the heuristics publish. *)
  for seed = 1 to 4 do
    let p = random_problem seed in
    let r = race (roster ~objective:Cost.Longest_link ~domains:4) seed p in
    let _, optimal = Brute_force.solve Cost.Longest_link p in
    Alcotest.(check bool) "valid" true (Types.is_valid p r.Solver.plan);
    Alcotest.(check bool) "proven" true (r.Solver.stop_reason = Solver.Proven_optimal);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d optimal: expected %.6f got %.6f" seed optimal r.Solver.cost)
      true
      (Float.abs (optimal -. r.Solver.cost) <= 1e-9)
  done

let test_portfolio_no_worse_than_members () =
  (* The winning plan can never cost more than what any single member
     ended with — the portfolio dominates its best member by construction. *)
  let p = random_problem 31 in
  let started = Obs.Clock.now_s () in
  let r = race capped 5 p in
  let elapsed = Obs.Clock.now_s () -. started in
  Alcotest.(check bool) "winner in range" true
    (match r.Solver.winner with
    | Some w -> w >= 0 && w < List.length capped_members
    | None -> false);
  Alcotest.(check int) "one telemetry row per member" (List.length capped_members)
    (List.length r.Solver.members);
  List.iter
    (fun (m : Solver.member) ->
      Alcotest.(check bool) "portfolio <= member" true (r.Solver.cost <= m.member_cost +. 1e-9);
      Alcotest.(check bool) "time-to-best sane" true
        (m.time_to_best >= 0.0 && m.time_to_best <= elapsed +. 1.0))
    r.Solver.members

let test_portfolio_trace_monotonic () =
  let p = random_problem ~nodes:6 ~instances:8 17 in
  let r = race capped 3 p in
  let rec check_sorted = function
    | (t1, c1) :: ((t2, c2) :: _ as rest) ->
        Alcotest.(check bool) "times non-decreasing" true (t1 <= t2);
        Alcotest.(check bool) "costs strictly decreasing" true (c1 > c2);
        check_sorted rest
    | _ -> ()
  in
  check_sorted r.Solver.trace;
  match List.rev r.Solver.trace with
  | (_, last) :: _ -> Alcotest.(check (float 1e-9)) "trace ends at final cost" r.Solver.cost last
  | [] -> Alcotest.fail "empty trace"

let test_portfolio_cancels_on_optimality () =
  (* The exact CP member proves optimality on a tiny problem almost
     instantly; the R2 members must then stop cooperatively long before
     the 30 s deadline. *)
  let p = random_problem ~nodes:4 ~instances:5 ~extra_edges:1 41 in
  let portfolio =
    {
      Solver.members =
        [
          Solver.Cp { Cp_solver.default_options with Cp_solver.clusters = None };
          Solver.Random_r2 30.0;
          Solver.Random_r2 30.0;
        ];
      time_limit = 30.0;
      share_incumbent = true;
    }
  in
  let started = Obs.Clock.now_s () in
  let r = race portfolio 9 p in
  let elapsed = Obs.Clock.now_s () -. started in
  Alcotest.(check bool) "proven" true (r.Solver.stop_reason = Solver.Proven_optimal);
  Alcotest.(check bool)
    (Printf.sprintf "cancelled well before deadline (%.2fs)" elapsed)
    true (elapsed < 15.0)

let test_portfolio_longest_path () =
  let p = tree_problem 2 5 in
  let objective = Cost.Longest_path in
  let r = race ~objective (roster ~objective ~domains:3) 13 p in
  let _, optimal = Brute_force.solve objective p in
  Alcotest.(check bool) "valid" true (Types.is_valid p r.Solver.plan);
  Alcotest.(check (float 1e-9)) "matches brute force" optimal r.Solver.cost

let test_portfolio_without_sharing () =
  let p = random_problem 23 in
  let r = race { capped with Solver.share_incumbent = false } 2 p in
  Alcotest.(check bool) "valid" true (Types.is_valid p r.Solver.plan)

let test_portfolio_validation () =
  let p = random_problem 3 in
  let rejects what message ?(objective = Cost.Longest_link) portfolio =
    Alcotest.check_raises what (Invalid_argument message) (fun () ->
        ignore (race ~objective portfolio 1 p))
  in
  rejects "empty members" "Solver.run: a portfolio needs members"
    { capped with Solver.members = [] };
  rejects "cp + longest path" "Solver.run: CP does not support the longest-path objective"
    ~objective:Cost.Longest_path
    { capped with Solver.members = [ Solver.Cp Cp_solver.default_options ] };
  rejects "zero budget" "Solver.run: time_limit must be positive"
    { capped with Solver.time_limit = 0.0 };
  rejects "nested" "Solver.run: a portfolio cannot be a portfolio member"
    { capped with Solver.members = [ Solver.Greedy_g1; Solver.Portfolio capped ] };
  Alcotest.check_raises "no domains"
    (Invalid_argument "Solver.portfolio: domains must be >= 1") (fun () ->
      ignore (Solver.portfolio ~objective:Cost.Longest_link ~domains:0 ~time_limit:1.0))

let test_default_members_roster () =
  List.iter
    (fun domains ->
      let r = roster ~objective:Cost.Longest_link ~domains in
      Alcotest.(check int)
        (Printf.sprintf "%d domains -> %d members" domains domains)
        domains (List.length r.Solver.members);
      match r.Solver.members with
      | Solver.Cp { Cp_solver.clusters = None; _ } :: _ -> ()
      | _ -> Alcotest.fail "exact CP member must lead the longest-link roster")
    [ 1; 2; 4; 6 ];
  match (roster ~objective:Cost.Longest_path ~domains:2).Solver.members with
  | Solver.Mip { Mip_solver.clusters = None; _ } :: _ -> ()
  | _ -> Alcotest.fail "exact MIP member must lead the longest-path roster"

let test_portfolio_via_advisor () =
  let p = random_problem 29 in
  let strategy = Solver.Portfolio capped in
  Alcotest.(check string) "strategy name" "Portfolio(4)" (Solver.name strategy);
  let s =
    Advisor.solve ~full:false (Prng.create 19) strategy Cost.Longest_link p.Types.graph
      p.Types.lat
  in
  Alcotest.(check bool) "valid" true (Types.is_valid p s.Advisor.plan)

let suite =
  [
    Alcotest.test_case "deterministic for fixed seed" `Quick test_portfolio_deterministic;
    Alcotest.test_case "matches brute force" `Quick test_portfolio_matches_brute_force;
    Alcotest.test_case "no worse than members" `Quick test_portfolio_no_worse_than_members;
    Alcotest.test_case "merged trace monotonic" `Quick test_portfolio_trace_monotonic;
    Alcotest.test_case "cancels on optimality" `Quick test_portfolio_cancels_on_optimality;
    Alcotest.test_case "longest path via mip" `Slow test_portfolio_longest_path;
    Alcotest.test_case "no sharing still valid" `Quick test_portfolio_without_sharing;
    Alcotest.test_case "argument validation" `Quick test_portfolio_validation;
    Alcotest.test_case "default roster" `Quick test_default_members_roster;
    Alcotest.test_case "advisor integration" `Quick test_portfolio_via_advisor;
  ]
