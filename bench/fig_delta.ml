(* Delta-evaluation kernel: correctness and throughput of incremental
   cost evaluation for local-search moves.

   Every move of the annealing loop used to pay a full Cost.eval — O(|E|)
   for longest link, a whole-DAG relaxation for longest path. The
   Delta_cost kernel answers the same proposals from the edges a move
   actually touches. This section checks and prints two claims:

   - equivalence: on small instances of both objectives the kernel's
     incremental costs match a from-scratch evaluation after every
     proposal, commit and abort — any disagreement is a hard failure
     (non-zero exit), which is what the CI smoke gate relies on;
   - throughput: annealing with the delta kernel sustains >= 5x the
     moves/sec of per-move full evaluation on the paper's 64-node
     behavioral-simulation template (8x8 mesh, longest link). Enforced at
     full scale; in --smoke mode the ratio is printed but not asserted
     (the budgets are too small to time reliably). *)

(* Wall time and total words allocated (minor + major - promoted counts a
   word once wherever it first lands) by a run of [f]. Minor words come
   from [Gc.minor_words], which counts the minor heap's current fill;
   [Gc.quick_stat] adds it only at the next minor collection. *)
let timed f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  (v, dt, Float.max 0.0 (words () -. w0))

(* The same annealing run — same seed, same move budget, same schedule —
   evaluated either through the delta kernel (solve_objective) or with
   one full Cost.eval per move. Both draw identical random streams, so
   they must visit identical plans. *)
let anneal_run problem objective ~moves ~use_delta seed =
  let options =
    {
      Cloudia.Anneal.default_options with
      Cloudia.Anneal.time_limit = 3600.0;
      restarts = 1;
      max_moves = Some moves;
    }
  in
  if use_delta then
    Cloudia.Anneal.solve_objective ~options (Prng.create seed) objective problem
  else
    Cloudia.Anneal.solve ~options (Prng.create seed)
      ~eval:(Cloudia.Cost.eval objective problem)
      problem

(* Best-of-3 timing: the run is deterministic (same seed, same moves), so
   the minimum wall time is the least-perturbed measurement — what the CI
   regression band compares against the committed baseline. Allocation is
   taken from the first repetition (it is per-run deterministic). *)
let best_of_3 f =
  let v, t0, w = timed f in
  let _, t1, _ = timed f in
  let _, t2, _ = timed f in
  (v, Float.min t0 (Float.min t1 t2), w)

let throughput ~key name problem objective ~moves seed =
  Util.subsection name;
  let full, t_full, w_full =
    best_of_3 (fun () -> anneal_run problem objective ~moves ~use_delta:false seed)
  in
  let delta, t_delta, w_delta =
    best_of_3 (fun () -> anneal_run problem objective ~moves ~use_delta:true seed)
  in
  if Float.abs (full.Cloudia.Anneal.cost -. delta.Cloudia.Anneal.cost) > 1e-9 then
    failwith
      (Printf.sprintf
         "fig-delta: delta kernel diverged from full evaluation (%s: %.9f vs %.9f)" name
         delta.Cloudia.Anneal.cost full.Cloudia.Anneal.cost);
  let mps_full = float_of_int full.Cloudia.Anneal.moves_tried /. t_full in
  let mps_delta = float_of_int delta.Cloudia.Anneal.moves_tried /. t_delta in
  let apm_full = w_full /. float_of_int full.Cloudia.Anneal.moves_tried in
  let apm_delta = w_delta /. float_of_int delta.Cloudia.Anneal.moves_tried in
  let ratio = mps_delta /. mps_full in
  Printf.printf "  %-28s %12s %12s %12s %10s\n" "evaluator" "moves" "moves/sec" "words/move"
    "cost";
  Printf.printf "  %-28s %12d %12.0f %12.1f %7.3f ms\n" "full Cost.eval per move"
    full.Cloudia.Anneal.moves_tried mps_full apm_full full.Cloudia.Anneal.cost;
  Printf.printf "  %-28s %12d %12.0f %12.1f %7.3f ms\n" "delta kernel"
    delta.Cloudia.Anneal.moves_tried mps_delta apm_delta delta.Cloudia.Anneal.cost;
  Printf.printf "  speedup: %.1fx (identical plans: %s)\n" ratio
    (if delta.Cloudia.Anneal.plan = full.Cloudia.Anneal.plan then "yes" else "NO");
  Util.metric (Printf.sprintf "fig_delta.%s.moves_per_sec_full" key) mps_full;
  Util.metric (Printf.sprintf "fig_delta.%s.moves_per_sec_delta" key) mps_delta;
  Util.metric (Printf.sprintf "fig_delta.%s.speedup" key) ratio;
  Util.metric (Printf.sprintf "fig_delta.%s.alloc_words_per_move_full" key) apm_full;
  Util.metric (Printf.sprintf "fig_delta.%s.alloc_words_per_move_delta" key) apm_delta;
  Util.write_csv
    ("fig_delta_" ^ String.map (fun c -> if c = ' ' then '_' else c) name)
    [ "evaluator"; "moves"; "moves_per_sec"; "alloc_words_per_move" ]
    [
      [
        "full";
        string_of_int full.Cloudia.Anneal.moves_tried;
        Printf.sprintf "%.0f" mps_full;
        Printf.sprintf "%.1f" apm_full;
      ];
      [
        "delta";
        string_of_int delta.Cloudia.Anneal.moves_tried;
        Printf.sprintf "%.0f" mps_delta;
        Printf.sprintf "%.1f" apm_delta;
      ];
    ];
  ratio

(* Anytime profile of the delta-kernel anneal on the same instance: one
   instrumented run's incumbent trace feeds the primal-integral and
   time-to-quality metrics the CI gate bands (the timed best_of_3 runs
   above stay un-instrumented so the moves/sec measurement is clean). *)
let anytime ~key problem objective ~moves seed =
  let options =
    {
      Cloudia.Anneal.default_options with
      Cloudia.Anneal.time_limit = 3600.0;
      restarts = 1;
      max_moves = Some moves;
    }
  in
  let trace = ref [] in
  let t_start = Unix.gettimeofday () in
  let on_improve _plan cost = trace := (Unix.gettimeofday () -. t_start, cost) :: !trace in
  let _ =
    Cloudia.Anneal.solve_objective ~options ~on_improve (Prng.create seed) objective problem
  in
  let window_s = Unix.gettimeofday () -. t_start in
  Util.anytime_metrics ~key:(Printf.sprintf "fig_delta.%s" key) ~window_s (List.rev !trace)

(* Mirror a random proposal stream on a shadow plan and cross-check the
   kernel against Cost.eval at every step — proposals, commits and aborts
   alike. Any mismatch fails the whole bench run. *)
let equivalence name objective problem seed ~steps =
  let rng = Prng.create seed in
  let n = Cloudia.Types.node_count problem in
  let m = Cloudia.Types.instance_count problem in
  let shadow = Cloudia.Types.random_plan rng problem in
  let kernel = Cloudia.Delta_cost.create objective problem shadow in
  let eval = Cloudia.Cost.eval objective problem in
  let checked = ref 0 in
  for _ = 1 to steps do
    let node = Prng.int rng n and target = Prng.int rng m in
    if target <> shadow.(node) then begin
      let source = shadow.(node) in
      let other = Cloudia.Delta_cost.occupant kernel target in
      shadow.(node) <- target;
      (match other with Some o -> shadow.(o) <- source | None -> ());
      let candidate = Cloudia.Delta_cost.propose_move kernel ~node ~target in
      let reference = eval shadow in
      if Float.abs (candidate -. reference) > 1e-9 then
        failwith
          (Printf.sprintf
             "fig-delta: %s proposal cost mismatch (delta %.12f vs full %.12f)" name
             candidate reference);
      incr checked;
      if Prng.bool rng then Cloudia.Delta_cost.commit kernel
      else begin
        Cloudia.Delta_cost.abort kernel;
        shadow.(node) <- source;
        match other with Some o -> shadow.(o) <- target | None -> ()
      end;
      let committed = Cloudia.Delta_cost.cost kernel in
      let reference = eval shadow in
      if Float.abs (committed -. reference) > 1e-9 then
        failwith
          (Printf.sprintf
             "fig-delta: %s committed cost mismatch (delta %.12f vs full %.12f)" name
             committed reference)
    end
  done;
  Printf.printf "  %-42s OK (%d proposals cross-checked)\n" name !checked

let run () =
  Util.section "Delta" "incremental (delta) cost evaluation for local search";
  Util.subsection "equivalence vs full evaluation (hard gate)";
  let small_link = Graphs.Templates.mesh2d ~rows:3 ~cols:3 in
  let small_path = Graphs.Templates.random_dag (Prng.create 611) ~n:12 ~edge_prob:0.3 in
  List.iter
    (fun seed ->
      let env = Util.env_of ~seed Util.ec2 ~count:12 in
      let problem = Util.problem_of ~seed:(seed + 1) env small_link in
      equivalence
        (Printf.sprintf "longest-link 3x3 mesh (seed %d)" seed)
        Cloudia.Cost.Longest_link problem (seed + 2)
        ~steps:(Util.trials ~floor:200 2000))
    [ 621; 622 ];
  List.iter
    (fun seed ->
      let env = Util.env_of ~seed Util.ec2 ~count:15 in
      let problem = Util.problem_of ~seed:(seed + 1) env small_path in
      equivalence
        (Printf.sprintf "longest-path 12-node DAG (seed %d)" seed)
        Cloudia.Cost.Longest_path problem (seed + 2)
        ~steps:(Util.trials ~floor:200 2000))
    [ 631; 632 ];
  (* Throughput at the paper's behavioral-simulation scale: 8x8 mesh of
     64 nodes, 20% over-allocation. *)
  let rows = 8 and cols = 8 in
  let mesh = Graphs.Templates.mesh2d ~rows ~cols in
  let env = Util.env_of ~seed:601 Util.ec2 ~count:(rows * cols * 12 / 10) in
  let problem = Util.problem_of ~seed:602 env mesh in
  (* The smoke floor is high enough (tens of ms for the delta evaluator
     too) that the moves/sec estimate is stable inside the CI regression
     band. *)
  let moves = Util.trials ~floor:48_000 200_000 in
  let ratio =
    throughput ~key:"mesh64" "longest link, 64-node mesh" problem Cloudia.Cost.Longest_link
      ~moves 603
  in
  anytime ~key:"mesh64" problem Cloudia.Cost.Longest_link ~moves 603;
  let dag = Graphs.Templates.random_dag (Prng.create 641) ~n:64 ~edge_prob:0.08 in
  let env = Util.env_of ~seed:642 Util.ec2 ~count:(64 * 12 / 10) in
  let dag_problem = Util.problem_of ~seed:643 env dag in
  let dag_moves = Util.trials ~floor:12_000 50_000 in
  let _ =
    throughput ~key:"dag64" "longest path, 64-node DAG" dag_problem Cloudia.Cost.Longest_path
      ~moves:dag_moves 644
  in
  anytime ~key:"dag64" dag_problem Cloudia.Cost.Longest_path ~moves:dag_moves 644;
  Printf.printf "\n  longest-link delta speedup vs the >=5x claim: %.1fx — %s\n" ratio
    (if ratio >= 5.0 then "PASS"
     else if !Util.smoke then "not enforced in --smoke"
     else "FAIL");
  if (not !Util.smoke) && ratio < 5.0 then
    failwith
      (Printf.sprintf "fig-delta: delta kernel speedup %.1fx below the 5x acceptance bar"
         ratio)
