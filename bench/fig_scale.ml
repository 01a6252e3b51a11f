(* fig-scale: solver scaling on the sparse LP kernel and CP symmetry
   breaking.

   Four gated measurements backing DESIGN.md §14:

   - CP symmetry breaking on a rack-structured cost matrix: identical
     true-cost rows make whole racks instance-interchangeable, so the
     broken search visits one representative per rack where the unbroken
     search tries every instance. Same final cost, far fewer nodes.
   - A 150-instance LLNDP LP relaxation (~93M cells as a dense tableau)
     on the sparse revised-simplex kernel, with linearized-max rows
     generated lazily from violated edges.
   - Branch-and-bound at 40 instances, where child nodes warm-start from
     the parent basis.
   - A bit-match check: a pure assignment LP (totally unimodular, dyadic
     costs, so every pivot quantity is exact) solved by the production
     sparse kernel and by the dense reference tableau ([Lp_reference])
     must agree on the optimal objective to the last bit.

   The rack matrix is exact on purpose: [rack] instances per rack at
   0.25 ms, [pod] per pod at 0.5 ms, 1.0 ms across pods. Racks are true
   interchangeability classes under exact float equality, and every cost
   is a dyadic rational, so simplex arithmetic on the assignment
   polytope stays exact. *)

let rack = 5

let pod = 50

let rack_matrix m =
  Lat_matrix.init m (fun i j ->
      if i = j then 0.0
      else if i / rack = j / rack then 0.25
      else if i / pod = j / pod then 0.5
      else 1.0)

let mesh_rows = 6

let mesh_cols = 6

let rack_problem m =
  let graph = Graphs.Templates.mesh2d ~rows:mesh_rows ~cols:mesh_cols in
  Cloudia.Types.of_matrix ~graph (rack_matrix m)

(* Fixed generous wall-clock caps: the searches below terminate naturally
   (UNSAT proof or node cap) in well under a second, and capping them at
   the smoke-mode 0.05 s would replace the deterministic node counts this
   section gates with wall-clock noise. *)
let cp_options ~symmetry_breaking =
  {
    Cloudia.Cp_solver.clusters = None;
    time_limit = 30.0;
    iteration_time_limit = None;
    use_labeling = true;
    bootstrap_trials = 10;
    symmetry_breaking;
  }

let cp_scale () =
  Util.subsection "CP symmetry breaking: nodes to optimality, racks of identical instances";
  Printf.printf
    "  mesh %dx%d; optimum is one pod (0.5 ms); proving it means refuting the\n\
    \  0.25 ms threshold, where the unbroken search tries every instance at the\n\
    \  root and the broken search one representative per rack\n\n"
    mesh_rows mesh_cols;
  Printf.printf "  %10s %11s %11s %8s %6s %7s\n" "instances" "nodes sym" "nodes plain"
    "ratio" "cost" "proved";
  List.iter
    (fun m ->
      let run symmetry_breaking =
        Cloudia.Cp_solver.solve
          ~options:(cp_options ~symmetry_breaking)
          ~node_limit:20_000 (Prng.create 91) (rack_problem m)
      in
      let sym = run true in
      let plain = run false in
      let ratio =
        float_of_int sym.Cloudia.Cp_solver.nodes
        /. float_of_int (max 1 plain.Cloudia.Cp_solver.nodes)
      in
      let cost_match =
        if sym.Cloudia.Cp_solver.cost = plain.Cloudia.Cp_solver.cost then 1.0 else 0.0
      in
      Printf.printf "  %10d %11d %11d %8.3f %6.2f %7s\n" m sym.Cloudia.Cp_solver.nodes
        plain.Cloudia.Cp_solver.nodes ratio sym.Cloudia.Cp_solver.cost
        (if sym.Cloudia.Cp_solver.proven_optimal then "yes" else "no");
      let key fmt = Printf.sprintf "fig_scale.cp%d.%s" m fmt in
      Util.metric (key "nodes_sym") (float_of_int sym.Cloudia.Cp_solver.nodes);
      Util.metric (key "nodes_unsym") (float_of_int plain.Cloudia.Cp_solver.nodes);
      Util.metric (key "sym_node_ratio") ratio;
      Util.metric (key "cost_match") cost_match;
      Util.metric (key "proven_sym")
        (if sym.Cloudia.Cp_solver.proven_optimal then 1.0 else 0.0))
    [ 40; 80; 150 ]

(* Counter deltas for one thunk, as an assoc list. *)
let with_counter_deltas f =
  let before = Obs.Counter.snapshot () in
  let r = f () in
  (r, Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()))

let counter deltas name = try float_of_int (List.assoc name deltas) with Not_found -> 0.0

let lp_relaxation () =
  Util.subsection "150-instance LLNDP LP relaxation on the sparse kernel";
  let m = 150 in
  let lat = rack_matrix m in
  let graph = Graphs.Templates.mesh2d ~rows:mesh_rows ~cols:mesh_cols in
  let n = Graphs.Digraph.n graph in
  let edges = Graphs.Digraph.edges graph in
  let model = Lp.Model.create () in
  let cap = Lp.Model.add_var model ~obj:1.0 "cap" in
  let x =
    Array.init n (fun i ->
        Array.init m (fun j -> Lp.Model.add_var model ~ub:1.0 (Printf.sprintf "x_%d_%d" i j)))
  in
  for i = 0 to n - 1 do
    Lp.Model.add_constraint model
      (List.init m (fun j -> (x.(i).(j), 1.0)))
      Lp.Simplex.Eq 1.0
  done;
  for j = 0 to m - 1 do
    Lp.Model.add_constraint model
      (List.init n (fun i -> (x.(i).(j), 1.0)))
      Lp.Simplex.Le 1.0
  done;
  Printf.printf
    "  %d x-variables, %d assignment rows; linearized-max rows added lazily\n\
    \  from the most violated (edge, instance-pair) terms of the incumbent\n\n"
    (n * m) (n + m);
  (* Lazy cut loop: solve, scan every (edge, j, j') for a violated
     cap >= CL(j,j') * (x_ij + x_i'j' - 1), add the worst offenders as
     Le rows, repeat. Each round re-solves cold on the sparse kernel. *)
  let max_rounds = Util.trials ~floor:1 6 in
  let cuts_per_round = 150 in
  let rounds = ref 0 in
  let cuts = ref 0 in
  let all_optimal = ref true in
  let value = ref nan in
  let started = Unix.gettimeofday () in
  let (), deltas =
    with_counter_deltas @@ fun () ->
    let continue = ref true in
    while !continue && !rounds < max_rounds do
      incr rounds;
      (match Lp.Model.solve_relaxation model with
      | Lp.Simplex.Optimal (obj, sol) ->
          value := obj;
          let c = Lp.Model.value sol cap in
          let violated = ref [] in
          Array.iter
            (fun (i, i') ->
              for j = 0 to m - 1 do
                let xi = Lp.Model.value sol x.(i).(j) in
                if xi > 1e-7 then
                  for j' = 0 to m - 1 do
                    if j' <> j then begin
                      let w = Lat_matrix.unsafe_get lat j j' in
                      let slack = (w *. (xi +. Lp.Model.value sol x.(i').(j') -. 1.0)) -. c in
                      if slack > 1e-7 then violated := (slack, i, i', j, j') :: !violated
                    end
                  done
              done)
            edges;
          let worst =
            List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> Float.compare b a) !violated
          in
          let rec take k = function
            | (_, i, i', j, j') :: tl when k > 0 ->
                let w = Lat_matrix.unsafe_get lat j j' in
                Lp.Model.add_constraint model
                  [ (x.(i).(j), w); (x.(i').(j'), w); (cap, -1.0) ]
                  Lp.Simplex.Le w;
                incr cuts;
                take (k - 1) tl
            | _ -> ()
          in
          take cuts_per_round worst;
          if !violated = [] then continue := false
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
          all_optimal := false;
          continue := false)
    done
  in
  let seconds = Unix.gettimeofday () -. started in
  let iters = counter deltas "lp.sparse.iterations" in
  Printf.printf
    "  %d rounds, %d cut rows, bound %.4f ms in %.2f s (%.0f sparse pivots,\n\
    \  %.0f refactorizations)\n"
    !rounds !cuts !value seconds iters
    (counter deltas "lp.sparse.refactorizations");
  Util.metric "fig_scale.lp150.rounds" (float_of_int !rounds);
  Util.metric "fig_scale.lp150.rows" (float_of_int !cuts);
  Util.metric "fig_scale.lp150.optimal" (if !all_optimal then 1.0 else 0.0);
  Util.metric "fig_scale.lp150.value" !value;
  Util.metric "fig_scale.lp150.sparse_iters" iters;
  Util.metric "fig_scale.lp150.seconds" seconds

let mip_scale () =
  Util.subsection "MIP at 40 instances: children warm-started from the parent basis";
  let m = 40 in
  let graph = Graphs.Templates.mesh2d ~rows:4 ~cols:4 in
  let problem = Cloudia.Types.of_matrix ~graph (rack_matrix m) in
  let options =
    {
      Cloudia.Mip_solver.clusters = None;
      (* Node-limited, not wall-clock-limited: the per-node sparse LP is
         the quantity under test, and the smoke budget of 0.05 s would
         abort the root solve. *)
      time_limit = 120.0;
      node_limit = Some (if !Util.smoke then 2 else 10);
      bootstrap_trials = 10;
    }
  in
  let started = Unix.gettimeofday () in
  let r, deltas =
    with_counter_deltas @@ fun () ->
    Cloudia.Mip_solver.solve_longest_link ~options (Prng.create 94) problem
  in
  let seconds = Unix.gettimeofday () -. started in
  Printf.printf
    "  16-node mesh on %d instances: cost %.2f ms after %d B&B nodes in %.2f s\n\
    \  (%.0f sparse solves, %.0f warm starts, %.0f dual pivots)\n"
    m r.Cloudia.Mip_solver.cost r.Cloudia.Mip_solver.nodes_explored seconds
    (counter deltas "lp.sparse.solves")
    (counter deltas "lp.sparse.warm_starts")
    (counter deltas "lp.sparse.dual_pivots");
  Util.metric "fig_scale.mip40.nodes" (float_of_int r.Cloudia.Mip_solver.nodes_explored);
  Util.metric "fig_scale.mip40.cost" r.Cloudia.Mip_solver.cost;
  Util.metric "fig_scale.mip40.warm" (counter deltas "lp.sparse.warm_starts");
  Util.metric "fig_scale.mip40.seconds" seconds

let bitmatch () =
  Util.subsection "dense vs sparse bit-identity on an exact assignment LP";
  (* Pure assignment polytope: totally unimodular constraints and dyadic
     costs keep every tableau entry and eta multiplier an exact dyadic
     rational, so the two kernels must agree on the optimum bit for bit
     (solutions may differ among alternate optima; the value cannot). *)
  let n = 6 in
  let w i j = 0.25 *. float_of_int (((i * 7) + (j * 3)) mod 4 + 1) in
  let model = Lp.Model.create () in
  let x =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Lp.Model.add_var model ~ub:1.0 ~obj:(w i j) (Printf.sprintf "a_%d_%d" i j)))
  in
  for i = 0 to n - 1 do
    Lp.Model.add_constraint model
      (List.init n (fun j -> (x.(i).(j), 1.0)))
      Lp.Simplex.Eq 1.0
  done;
  for j = 0 to n - 1 do
    Lp.Model.add_constraint model
      (List.init n (fun i -> (x.(i).(j), 1.0)))
      Lp.Simplex.Le 1.0
  done;
  let objective = function
    | Lp.Simplex.Optimal (obj, _) -> Some obj
    | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> None
  in
  let dense = objective (Lp_reference.Dense.solve_relaxation model) in
  let sparse = objective (Lp.Model.solve_relaxation model) in
  let matched =
    match (dense, sparse) with
    | Some d, Some s -> Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float s)
    | _ -> false
  in
  (match (dense, sparse) with
  | Some d, Some s ->
      Printf.printf "  dense %.17g | sparse %.17g | %s\n" d s
        (if matched then "bit-identical" else "MISMATCH")
  | _ -> Printf.printf "  solver disagreement on status\n");
  Util.metric "fig_scale.sparse_dense.bitmatch" (if matched then 1.0 else 0.0)

let run () =
  Util.section "fig-scale" "solver scaling: sparse LP kernel, CP symmetry breaking";
  cp_scale ();
  lp_relaxation ();
  mip_scale ();
  bitmatch ()
