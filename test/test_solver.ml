open Cloudia

(* Differential tests over every strategy {!Solver.run} dispatches: one
   problem, every solver, the same assertions. Brute force is the oracle;
   instances stay at <= 8 so it enumerates in milliseconds. *)

let matrix rng instances =
  Array.init instances (fun j ->
      Array.init instances (fun j' -> if j = j' then 0.0 else 0.1 +. Prng.float rng 1.0))

(* Seeded LLNDP (connected graph) and LPNDP (random DAG) problems, 4
   nodes on 6 instances: small enough for MIP to prove in well under a
   second. *)
let instance objective seed =
  let rng = Prng.create seed in
  let graph =
    match objective with
    | Cost.Longest_link -> Graphs.Templates.random_connected rng ~n:4 ~extra_edges:2
    | Cost.Longest_path -> Graphs.Templates.random_dag rng ~n:4 ~edge_prob:0.6
  in
  Types.problem ~graph ~costs:(matrix rng 6)

(* What `--strategy` names on the command line, with budgets cut to test
   size, plus exact-cost CP so proofs can be checked on both objectives. *)
let strategies objective =
  [
    Solver.Greedy_g1;
    Solver.Greedy_g2;
    Solver.Random_r1 1000;
    Solver.Random_r2 0.02;
    Solver.Descent 0.02;
    Solver.Anneal { Anneal.default_options with Anneal.time_limit = 5.0; max_moves = Some 3000 };
    Solver.Cp { Cp_solver.default_options with Cp_solver.time_limit = 5.0 };
    Solver.Cp { Cp_solver.default_options with Cp_solver.time_limit = 5.0; clusters = None };
    Solver.Mip { Mip_solver.default_options with Mip_solver.time_limit = 10.0 };
    Solver.portfolio ~objective ~domains:4 ~time_limit:5.0;
    (* The other objective's roster: unsupported on longest path. *)
    Solver.portfolio ~objective:Cost.Longest_link ~domains:2 ~time_limit:5.0;
  ]

(* A proof is a proof for the true instance only without clustering; a
   portfolio reports [Proven_optimal] only for such proofs. *)
let exact_costs = function
  | Solver.Cp { Cp_solver.clusters = None; _ }
  | Solver.Mip { Mip_solver.clusters = None; _ }
  | Solver.Portfolio _ ->
      true
  | _ -> false

let same_bits name expected actual =
  Alcotest.(check int64)
    (Printf.sprintf "%s: Cost.eval %h, outcome %h" name expected actual)
    (Int64.bits_of_float expected) (Int64.bits_of_float actual)

let differential objective seed =
  let p = instance objective seed in
  let _, optimum = Brute_force.solve objective p in
  List.iter
    (fun s ->
      let name =
        Printf.sprintf "%s seed %d %s" (Cost.objective_to_string objective) seed (Solver.name s)
      in
      if Solver.supports s objective then begin
        let o = Solver.run s (Prng.create seed) objective p in
        Alcotest.(check bool) (name ^ ": injective") true (Types.is_valid p o.Solver.plan);
        same_bits name (Cost.eval objective p o.Solver.plan) o.Solver.cost;
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.9f >= optimum %.9f" name o.Solver.cost optimum)
          true (o.Solver.cost >= optimum);
        if o.Solver.stop_reason = Solver.Proven_optimal && exact_costs s then
          Alcotest.(check (float 1e-9)) (name ^ ": proof is the optimum") optimum o.Solver.cost
      end
      else begin
        (* Refused before any search: no callback and no PRNG draw. *)
        let rng = Prng.create seed in
        (match
           Solver.run ~on_improve:(fun _ _ -> Alcotest.fail (name ^ ": searched")) s rng
             objective p
         with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (name ^ ": expected Invalid_argument"));
        Alcotest.(check int64) (name ^ ": no PRNG draw")
          (Prng.bits64 (Prng.create seed)) (Prng.bits64 rng)
      end)
    (strategies objective)

let test_differential_ll () = List.iter (differential Cost.Longest_link) [ 1; 2; 3 ]
let test_differential_lp () = List.iter (differential Cost.Longest_path) [ 4; 5; 6 ]

let test_unsupported_is_exactly_cp_on_lp () =
  List.iter
    (fun s ->
      let is_cp = function Solver.Cp _ -> true | _ -> false in
      let has_cp =
        match s with Solver.Portfolio p -> List.exists is_cp p.Solver.members | s -> is_cp s
      in
      Alcotest.(check bool) (Solver.name s ^ " on longest link") true
        (Solver.supports s Cost.Longest_link);
      Alcotest.(check bool) (Solver.name s ^ " on longest path") (not has_cp)
        (Solver.supports s Cost.Longest_path))
    (strategies Cost.Longest_link)

(* Why each solver stops. Work-bounded runs report [Finished], clocked
   ones [Budget], exact solvers [Proven_optimal] exactly when their own
   result says so. *)
let test_stop_reason_table () =
  let p = instance Cost.Longest_link 7 in
  let run ?stop s = Solver.run ?stop s (Prng.create 7) Cost.Longest_link p in
  let reason name expected o =
    Alcotest.(check bool) name true (o.Solver.stop_reason = expected)
  in
  let stop () = true in
  reason "G1 finished" Solver.Finished (run Solver.Greedy_g1);
  reason "G2 finished" Solver.Finished (run Solver.Greedy_g2);
  reason "R1 finished" Solver.Finished (run (Solver.Random_r1 50));
  reason "R1 stopped" Solver.Budget (run ~stop (Solver.Random_r1 50));
  reason "R2 budget" Solver.Budget (run (Solver.Random_r2 0.01));
  reason "descent budget" Solver.Budget (run (Solver.Descent 0.01));
  (* Annealing: [Finished] exactly when the move budget was spent. *)
  List.iter
    (fun (name, max_moves, time_limit) ->
      let o =
        run (Solver.Anneal { Anneal.default_options with Anneal.time_limit; max_moves })
      in
      let tried = match o.Solver.stats with Solver.Anneal_stats s -> s.moves_tried | _ -> -1 in
      let spent = match max_moves with Some m -> tried >= m | None -> false in
      Alcotest.(check bool) (name ^ ": Finished iff moves_tried >= max_moves") spent
        (o.Solver.stop_reason = Solver.Finished);
      Alcotest.(check bool) (name ^ ": otherwise Budget") (not spent)
        (o.Solver.stop_reason = Solver.Budget))
    [
      ("anneal capped", Some 500, 30.0);
      ("anneal uncapped", None, 0.01);
      ("anneal cap not reached", Some max_int, 0.01);
    ];
  (* CP and MIP: [Proven_optimal] exactly when the solver's own result is
     proven, compared against a direct call on the same seed. *)
  let exact_cp = { Cp_solver.default_options with Cp_solver.clusters = None } in
  List.iter
    (fun (name, stop) ->
      let o = run ?stop (Solver.Cp exact_cp) in
      let r = Cp_solver.solve ~options:exact_cp ?stop (Prng.create 7) p in
      Alcotest.(check bool) (name ^ ": Proven_optimal iff proven_optimal")
        r.Cp_solver.proven_optimal
        (o.Solver.stop_reason = Solver.Proven_optimal);
      Alcotest.(check bool) (name ^ ": otherwise Budget") (not r.Cp_solver.proven_optimal)
        (o.Solver.stop_reason = Solver.Budget))
    [ ("cp", None); ("cp stopped", Some stop) ];
  reason "cp proves here" Solver.Proven_optimal (run (Solver.Cp exact_cp));
  reason "mip proves here" Solver.Proven_optimal (run (Solver.Mip Mip_solver.default_options));
  reason "mip stopped" Solver.Budget (run ~stop (Solver.Mip Mip_solver.default_options));
  (* A portfolio claims a proof only on exact costs: a clustered CP proof
     is a pure function of the arguments, so the race is [Finished]. *)
  let clustered = Solver.Cp { Cp_solver.default_options with Cp_solver.clusters = Some 2 } in
  let o =
    run
      (Solver.Portfolio
         { Solver.members = [ clustered ]; time_limit = 30.0; share_incumbent = true })
  in
  Alcotest.(check (list bool)) "member proved on clustered costs" [ true ]
    (List.map (fun (m : Solver.member) -> m.proved_optimal) o.Solver.members);
  reason "portfolio, clustered proof" Solver.Finished o

let test_time_limit_override () =
  (* [?time_limit] replaces the options' budget, clamped to >= 1 ms: a
     zero override still runs (and cannot reach a 10^9-move cap). *)
  let p = instance Cost.Longest_link 8 in
  let anneal =
    Solver.Anneal
      { Anneal.default_options with Anneal.time_limit = 600.0; max_moves = Some 1_000_000_000 }
  in
  let started = Obs.Clock.now_s () in
  let o = Solver.run ~time_limit:0.0 anneal (Prng.create 8) Cost.Longest_link p in
  Alcotest.(check bool) "override bounds the run" true (Obs.Clock.now_s () -. started < 60.0);
  Alcotest.(check bool) "clock stop is Budget" true (o.Solver.stop_reason = Solver.Budget);
  Alcotest.(check bool) "valid" true (Types.is_valid p o.Solver.plan)

let suite =
  [
    Alcotest.test_case "differential longest link" `Quick test_differential_ll;
    Alcotest.test_case "differential longest path" `Quick test_differential_lp;
    Alcotest.test_case "supports is CP on longest path" `Quick
      test_unsupported_is_exactly_cp_on_lp;
    Alcotest.test_case "stop reason table" `Quick test_stop_reason_table;
    Alcotest.test_case "time limit override" `Quick test_time_limit_override;
  ]
