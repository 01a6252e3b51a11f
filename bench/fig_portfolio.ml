(* Solver portfolio: 1/2/4-domain portfolios against each single strategy
   at equal wall-clock. The paper evaluates its strategies one at a time;
   this section shows what a fixed tuning budget buys when they race in
   parallel OCaml domains and share the incumbent (the CP member starts
   each threshold iteration from the best plan any worker published).

   On a small enough problem the exact CP member proves optimality within
   the budget and cancels the rest, so the 4-domain portfolio is never
   worse than the best single strategy — that inequality is checked and
   printed explicitly, as is bit-level run-to-run determinism. *)

let run () =
  Util.section "Portfolio" "parallel solver portfolio vs single strategies (LLNDP)";
  let rows = 3 and cols = 3 in
  let graph = Graphs.Templates.mesh2d ~rows ~cols in
  let env = Util.env_of ~seed:301 Util.ec2 ~count:(rows * cols * 12 / 10) in
  let problem = Util.problem_of ~seed:302 env graph in
  let ll = Cloudia.Cost.longest_link problem in
  let budget = Util.budget 6.0 in
  Printf.printf
    "3x3 mesh on %d instances, %.2f s wall-clock per contender\n\n"
    (Cloudia.Types.instance_count problem) budget;
  Printf.printf "  %-22s %14s %10s %12s\n" "strategy" "longest link" "time" "note";
  let results = ref [] in
  let show name cost seconds note =
    results := (name, cost) :: !results;
    Printf.printf "  %-22s %11.3f ms %8.2f s %12s\n" name cost seconds note
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* Single strategies, each with the full budget to itself. *)
  let plan, t = timed (fun () -> Cloudia.Greedy.g2 problem) in
  show "G2" (ll plan) t "";
  let (plan, _), t =
    timed (fun () ->
        Cloudia.Random_search.r1 (Prng.create 303) Cloudia.Cost.Longest_link problem
          ~trials:(Util.trials ~floor:50 1000))
  in
  show "R1" (ll plan) t "";
  let (plan, _, _), t =
    timed (fun () ->
        Cloudia.Random_search.r2 (Prng.create 304) Cloudia.Cost.Longest_link problem
          ~time_limit:budget)
  in
  show "R2" (ll plan) t "";
  let sa, t =
    timed (fun () ->
        Cloudia.Anneal.solve_objective
          ~options:{ Cloudia.Anneal.default_options with Cloudia.Anneal.time_limit = budget }
          (Prng.create 305) Cloudia.Cost.Longest_link problem)
  in
  show "SA" sa.Cloudia.Anneal.cost t "";
  let cp, t =
    timed (fun () ->
        Cloudia.Cp_solver.solve
          ~options:(Util.cp_options ~clusters:None ~time_limit:budget ())
          (Prng.create 306) problem)
  in
  show "CP (exact)" cp.Cloudia.Cp_solver.cost t
    (if cp.Cloudia.Cp_solver.proven_optimal then "proved" else "time limit");
  let best_single =
    List.fold_left (fun acc (_, c) -> Float.min acc c) infinity !results
  in
  (* Portfolios under the same wall-clock budget, growing the roster. *)
  let portfolio domains =
    Cloudia.Solver.run
      (Cloudia.Solver.portfolio ~objective:Cloudia.Cost.Longest_link ~domains
         ~time_limit:budget)
      (Prng.create 307) Cloudia.Cost.Longest_link problem
  in
  let last = ref None in
  List.iter
    (fun domains ->
      let r, t = timed (fun () -> portfolio domains) in
      if domains = 4 then last := Some r;
      show
        (Printf.sprintf "%d-domain portfolio" domains)
        r.Cloudia.Solver.cost t
        (if r.Cloudia.Solver.stop_reason = Cloudia.Solver.Proven_optimal then "proved"
         else
           let w = Option.get r.Cloudia.Solver.winner in
           Printf.sprintf "won by %s"
             (List.nth r.Cloudia.Solver.members w).Cloudia.Solver.member_name))
    [ 1; 2; 4 ];
  (match !last with
  | None -> ()
  | Some r ->
      Printf.printf "\n  per-worker telemetry of the 4-domain portfolio:\n";
      Printf.printf "  %-8s %14s %14s %12s\n" "member" "best cost" "time to best" "effort";
      List.iter
        (fun (m : Cloudia.Solver.member) ->
          Printf.printf "  %-8s %11.3f ms %12.3f s %12d\n" m.member_name m.member_cost
            m.time_to_best m.iterations)
        r.Cloudia.Solver.members;
      Util.print_trace ~csv:"fig_portfolio_trace"
        "\n  merged anytime trace (all workers):" r.Cloudia.Solver.trace;
      Printf.printf "\n  4-domain portfolio vs best single strategy: %.3f vs %.3f ms — %s\n"
        r.Cloudia.Solver.cost best_single
        (if r.Cloudia.Solver.cost <= best_single +. 1e-9 then "NO WORSE (as claimed)"
         else "WORSE");
      let again = portfolio 4 in
      Printf.printf "  determinism re-run: %.6f vs %.6f ms, plans %s\n"
        r.Cloudia.Solver.cost again.Cloudia.Solver.cost
        (if again.Cloudia.Solver.plan = r.Cloudia.Solver.plan then "IDENTICAL"
         else "different"))
