(* Command-line front end to the ClouDiA deployment advisor.

   Subcommands:
     advise    - run the full pipeline for a workload and print the report
     plan      - solve a deployment from a user-supplied cost matrix
     lint      - validate an instance (matrix/graph/config) without solving
     measure   - compare the three measurement schemes on one allocation
     convert   - convert a cost matrix between CSV and the binary format
     survey    - print latency heterogeneity and stability for a provider
     redeploy  - simulate iterative re-deployment under changing conditions
     bandwidth - optimize the bottleneck-bandwidth criterion
     serve     - long-running advising daemon on a Unix socket
     client    - submit jobs to a running daemon *)

open Cmdliner

(* ---- shared argument converters ---- *)

let provider_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "ec2" -> Ok Cloudsim.Provider.Ec2
    | "gce" -> Ok Cloudsim.Provider.Gce
    | "rackspace" -> Ok Cloudsim.Provider.Rackspace
    | _ -> Error (`Msg "provider must be ec2, gce or rackspace")
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Cloudsim.Provider.to_string p))

let metric_conv =
  let parse s =
    match Cloudia.Metrics.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "metric must be mean, mean+sd or p99")
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Cloudia.Metrics.to_string m))

let provider_arg =
  Arg.(value & opt provider_conv Cloudsim.Provider.Ec2 & info [ "provider" ] ~doc:"Cloud provider preset: ec2, gce or rackspace.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (runs are deterministic per seed).")

(* ---- JSON for --json, built as Obs.Json values ---- *)

(* Report numbers: %.6g keeps the advise report readable; NaN and the
   infinities, which JSON cannot spell, become null. *)
let num6 f = if Float.is_finite f then Obs.Json.Num (Printf.sprintf "%.6g" f) else Obs.Json.Null

(* Full %.17g precision, through the one float printer: two runs
   producing bit-identical float64 costs produce byte-identical reports,
   which is what the CI equivalence gate diffs. NaN prints as the string
   "nan" and the infinities as sprintf spells them. *)
let num17 f =
  if Float.is_nan f then Obs.Json.Str "nan"
  else if Float.is_finite f then Obs.Json.of_float f
  else Obs.Json.Num (if f > 0.0 then "inf" else "-inf")

let ints l = Obs.Json.Arr (List.map Obs.Json.of_int l)

let solver_stats_json stats =
  let open Obs.Json in
  let kind k fields = Obj (("kind", Str k) :: List.map (fun (n, v) -> (n, of_int v)) fields) in
  match stats with
  | Cloudia.Solver.No_stats -> kind "none" []
  | Cloudia.Solver.Cp_stats { iterations; nodes; failures; propagations } ->
      kind "cp"
        [
          ("iterations", iterations);
          ("nodes", nodes);
          ("failures", failures);
          ("propagations", propagations);
        ]
  | Cloudia.Solver.Mip_stats { nodes_explored; nodes_pruned } ->
      kind "mip" [ ("nodes_explored", nodes_explored); ("nodes_pruned", nodes_pruned) ]
  | Cloudia.Solver.Anneal_stats { moves_tried; moves_accepted } ->
      kind "anneal" [ ("moves_tried", moves_tried); ("moves_accepted", moves_accepted) ]
  | Cloudia.Solver.Random_stats { trials } -> kind "random" [ ("trials", trials) ]

let telemetry_json (t : Cloudia.Advisor.telemetry) =
  let open Obs.Json in
  Obj
    [
      ("strategy", Str t.Cloudia.Advisor.strategy_name);
      ("solver", solver_stats_json t.Cloudia.Advisor.solver);
      ( "proven_optimal",
        Bool (t.Cloudia.Advisor.stop_reason = Cloudia.Solver.Proven_optimal) );
      ( "incumbent_trace",
        Arr (List.map (fun (s, c) -> Arr [ num6 s; num6 c ]) t.Cloudia.Advisor.incumbent_trace)
      );
      ("winner", match t.Cloudia.Advisor.winner with Some w -> Str w | None -> Null);
      ( "members",
        Arr
          (List.map
             (fun (m : Cloudia.Solver.member) ->
               Obj
                 [
                   ("name", Str m.member_name);
                   ("best_cost", num6 m.member_cost);
                   ("time_to_best", num6 m.time_to_best);
                   ("seconds", num6 m.seconds);
                   ("iterations", of_int m.iterations);
                   ("proved_optimal", Bool m.proved_optimal);
                 ])
             t.Cloudia.Advisor.members) );
      ("counters", Obj (List.map (fun (n, v) -> (n, of_int v)) t.Cloudia.Advisor.counters));
    ]

let report_json ~describe ~objective (r : Cloudia.Advisor.report) =
  let open Obs.Json in
  Obj
    [
      ("workload", Str describe);
      ("diagnostics", Lint.Diagnostic.json r.Cloudia.Advisor.diagnostics);
      ("objective", Str (Cloudia.Cost.objective_to_string objective));
      ("instances_allocated", of_int (Cloudsim.Env.count r.Cloudia.Advisor.env));
      ("measurement_minutes", num6 r.Cloudia.Advisor.measurement_minutes);
      ("search_seconds", num6 r.Cloudia.Advisor.search_seconds);
      ("default_cost_ms", num6 r.Cloudia.Advisor.default_cost);
      ("optimized_cost_ms", num6 r.Cloudia.Advisor.cost);
      ("improvement_pct", num6 r.Cloudia.Advisor.improvement_pct);
      ("plan", ints (Array.to_list r.Cloudia.Advisor.plan));
      ("default_plan", ints (Array.to_list r.Cloudia.Advisor.default_plan));
      ("terminated", ints r.Cloudia.Advisor.terminated);
      ("dropped", ints r.Cloudia.Advisor.dropped);
      ("measurement_coverage", num6 r.Cloudia.Advisor.measurement_coverage);
      ("telemetry", telemetry_json r.Cloudia.Advisor.telemetry);
    ]

let print_json v = print_endline (Obs.Json.to_string v)

(* ---- tracing plumbing shared by advise ---- *)

type trace_format = Jsonl | Chrome

let trace_format_conv =
  Arg.enum [ ("jsonl", Jsonl); ("chrome", Chrome) ]

(* Drain once; feed the same event list to every requested exporter. *)
let export_observability ?seed ~trace_file ~trace_format ~obs_summary () =
  if trace_file <> None || obs_summary then begin
    let events = Obs.Sink.drain () in
    let counters = Obs.Counter.snapshot () in
    let gauges = Obs.Gauge.snapshot () in
    let hists =
      List.filter (fun (h : Obs.Histogram.snapshot) -> h.hist_count > 0)
        (Obs.Histogram.snapshot ())
    in
    let argv = List.tl (Array.to_list Sys.argv) in
    let run = { Obs.Export.seed; argv } in
    (match trace_file with
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            match trace_format with
            | Jsonl -> Obs.Export.jsonl ~run ~counters ~gauges ~hists oc events
            | Chrome -> Obs.Export.chrome ~run ~counters ~gauges ~hists oc events)
    | None -> ());
    if obs_summary then
      Obs.Trace.report stderr
        {
          Obs.Trace.header = Some { schema = Obs.Export.schema_version; seed; argv };
          events;
          counters;
          gauges;
          hists;
        }
  end

(* ---- advise ---- *)

type workload = Behavioral | Aggregation | Kv

let workload_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "behavioral" -> Ok Behavioral
    | "aggregation" -> Ok Aggregation
    | "kv" -> Ok Kv
    | _ -> Error (`Msg "workload must be behavioral, aggregation or kv")
  in
  Arg.conv
    ( parse,
      fun fmt w ->
        Format.pp_print_string fmt
          (match w with Behavioral -> "behavioral" | Aggregation -> "aggregation" | Kv -> "kv") )

let strategy_of_string ~time_limit ~domains ~objective s =
  match String.lowercase_ascii s with
  | "g1" -> Ok Cloudia.Solver.Greedy_g1
  | "g2" -> Ok Cloudia.Solver.Greedy_g2
  | "r1" -> Ok (Cloudia.Solver.Random_r1 1000)
  | "r2" -> Ok (Cloudia.Solver.Random_r2 time_limit)
  | "r2d" | "descent" -> Ok (Cloudia.Solver.Descent time_limit)
  | "anneal" -> Ok (Cloudia.Solver.Anneal { Cloudia.Anneal.default_options with time_limit })
  | "cp" -> Ok (Cloudia.Solver.Cp { Cloudia.Cp_solver.default_options with time_limit })
  | "mip" -> Ok (Cloudia.Solver.Mip { Cloudia.Mip_solver.default_options with time_limit })
  | "portfolio" ->
      if domains < 1 then Error (`Msg "--domains must be >= 1")
      else Ok (Cloudia.Solver.portfolio ~objective ~domains ~time_limit)
  | _ -> Error (`Msg "strategy must be g1, g2, r1, r2, r2d, anneal, cp, mip or portfolio")

let objective_of_arg s =
  match Cloudia.Cost.objective_of_string (String.lowercase_ascii s) with
  | Some o -> Ok o
  | None -> Error "objective must be ll or lp"

(* --graph-spec or --graph-file, for advise and lint. An edge-list file
   is linted before construction (GRF001-GRF003), so every structural
   problem gets a code: the graph is [None] when the findings hold an
   error. *)
let load_graph graph_spec graph_file =
  match (graph_spec, graph_file) with
  | Some _, Some _ -> Error "give either --graph-spec or --graph-file, not both"
  | Some spec, None ->
      Result.map (fun g -> (Some (g, "spec " ^ spec), [])) (Graphs.Graph_io.parse_spec spec)
  | None, Some file -> (
      match In_channel.with_open_text file In_channel.input_all with
      | exception Sys_error e -> Error e
      | text -> (
          match Graphs.Graph_io.parse_edge_list_raw text with
          | Error e -> Error e
          | Ok (n, edges) ->
              let ds = Lint.Instance.check_edges ~n edges in
              if Lint.Diagnostic.errors ds <> [] then Ok (None, ds)
              else Ok (Some (Graphs.Digraph.create ~n edges, "file " ^ file), ds)))
  | None, None -> Ok (None, [])

(* --costs-file through the one loader; a ragged CSV is refused with its
   LAT001 finding. *)
let load_costs file =
  match Cloudia.Matrix_io.load file with
  | Ok lat -> Ok lat
  | Error (`Msg e) -> Error e
  | Error (`Lint ds) -> Error (String.trim (Format.asprintf "%a" Lint.Diagnostic.render ds))

let blocks ~strict ds =
  Lint.Diagnostic.errors ds <> [] || (strict && Lint.Diagnostic.warnings ds <> [])

let on_missing_conv =
  Arg.enum
    [
      ("fail", Cloudia.Advisor.Fail);
      ("impute", Cloudia.Advisor.Impute);
      ("drop", Cloudia.Advisor.Drop_instance);
    ]

let advise provider seed workload strategy_name scale over metric time_limit domains
    graph_spec graph_file trace_file trace_format obs_summary strict_lint json
    on_missing probe_loss stragglers straggler_factor crash fault_seed =
  let from_workload () =
    match workload with
    | Behavioral ->
        ( Workloads.Behavioral.graph ~rows:scale ~cols:scale,
          Cloudia.Cost.Longest_link,
          Printf.sprintf "behavioral %dx%d mesh" scale scale )
    | Aggregation ->
        ( Workloads.Aggregation.graph ~fanout:2 ~depth:scale,
          Cloudia.Cost.Longest_path,
          Printf.sprintf "aggregation tree depth %d" scale )
    | Kv ->
        ( Workloads.Kv_store.graph ~front_ends:scale ~storage:(2 * scale),
          Cloudia.Cost.Longest_link,
          Printf.sprintf "kv store %d front-ends x %d storage" scale (2 * scale) )
  in
  (* An explicit graph (template spec or edge-list file) overrides the
     workload template; the objective then defaults to longest link, or
     longest path when the graph is a DAG with aggregation set. *)
  match load_graph graph_spec graph_file with
  | Error e ->
      prerr_endline e;
      2
  | Ok (_, edge_diags) when blocks ~strict:strict_lint edge_diags ->
      Format.eprintf "%a" Lint.Diagnostic.render edge_diags;
      prerr_endline "advise: blocked by lint errors";
      2
  | Ok (graph, edge_diags) ->
  let graph, objective, describe =
    match graph with
    | None -> from_workload ()
    | Some (g, label) ->
        let objective =
          match workload with
          | Aggregation when Graphs.Digraph.is_dag g -> Cloudia.Cost.Longest_path
          | _ -> Cloudia.Cost.Longest_link
        in
        (g, objective, label)
  in
  (match strategy_of_string ~time_limit ~domains ~objective strategy_name with
  | Error (`Msg m) -> prerr_endline m; 2
  | Ok strategy -> (
      let config =
        {
          Cloudia.Advisor.graph;
          objective;
          metric;
          over_allocation = over;
          samples_per_pair = 30;
          strategy;
        }
      in
      if trace_file <> None || obs_summary then Obs.Sink.enable ();
      let faults =
        {
          Cloudsim.Faults.none with
          Cloudsim.Faults.seed = fault_seed;
          loss = probe_loss;
          straggler_fraction = stragglers;
          straggler_factor;
          crash_fraction = crash;
          (* Crash onsets jitter around this; [Faults.none]'s 1 s default
             outlives a whole staged run at CLI sizes (tens of ms of
             simulated time), so anchor early enough to bite. *)
          crash_after_ms = 10.0;
        }
      in
      match
        Cloudia.Advisor.run ~strict_lint ~faults ~on_missing (Prng.create seed)
          (Cloudsim.Provider.get provider) config
      with
      | exception Invalid_argument m -> prerr_endline m; 2
      | exception Lint.Diagnostic.Failed ds ->
          Format.eprintf "%a" Lint.Diagnostic.render ds;
          prerr_endline
            (if strict_lint then "advise: blocked by lint (running with --strict-lint)"
             else "advise: blocked by lint errors");
          2
      | report ->
          let report =
            { report with diagnostics = edge_diags @ report.Cloudia.Advisor.diagnostics }
          in
          export_observability ~seed ~trace_file ~trace_format ~obs_summary ();
          (* Tolerated findings still deserve eyeballs: render them on
             stderr so stdout stays machine-readable. *)
          if not json then
            Format.eprintf "%a" Lint.Diagnostic.render report.Cloudia.Advisor.diagnostics;
          if json then print_json (report_json ~describe ~objective report)
          else begin
            let telemetry = report.Cloudia.Advisor.telemetry in
            Printf.printf "workload            : %s\n" describe;
            Printf.printf "objective           : %s\n" (Cloudia.Cost.objective_to_string objective);
            Printf.printf "strategy            : %s\n"
              (Cloudia.Solver.name strategy);
            Printf.printf "instances allocated : %d\n" (Cloudsim.Env.count report.Cloudia.Advisor.env);
            Printf.printf "measurement charged : %.1f min\n"
              report.Cloudia.Advisor.measurement_minutes;
            if report.Cloudia.Advisor.measurement_coverage < 1.0 then
              Printf.printf "probe coverage      : %.1f%% of ordered pairs (on-missing: %s)\n"
                (100.0 *. report.Cloudia.Advisor.measurement_coverage)
                (Cloudia.Advisor.on_missing_to_string on_missing);
            if report.Cloudia.Advisor.dropped <> [] then
              Printf.printf "dropped (uncovered) : %s\n"
                (String.concat ", "
                   (List.map string_of_int report.Cloudia.Advisor.dropped));
            Printf.printf "search time         : %.2f s\n" report.Cloudia.Advisor.search_seconds;
            (match telemetry.Cloudia.Advisor.solver with
            | Cloudia.Solver.No_stats -> ()
            | Cloudia.Solver.Cp_stats { iterations; nodes; failures; propagations } ->
                Printf.printf
                  "solver effort       : %d iterations, %d nodes, %d failures, %d propagations\n"
                  iterations nodes failures propagations
            | Cloudia.Solver.Mip_stats { nodes_explored; nodes_pruned } ->
                Printf.printf "solver effort       : %d nodes explored, %d pruned\n"
                  nodes_explored nodes_pruned
            | Cloudia.Solver.Anneal_stats { moves_tried; moves_accepted } ->
                Printf.printf "solver effort       : %d moves tried, %d accepted\n"
                  moves_tried moves_accepted
            | Cloudia.Solver.Random_stats { trials } ->
                Printf.printf "solver effort       : %d trials\n" trials);
            (match telemetry.Cloudia.Advisor.winner with
            | Some w ->
                Printf.printf "portfolio winner    : %s\n" w;
                List.iter
                  (fun (m : Cloudia.Solver.member) ->
                    Printf.printf
                      "  member %-9s : best %.3f ms in %.2f s (best at %.2f s, %d iterations%s)\n"
                      m.member_name m.member_cost m.seconds m.time_to_best m.iterations
                      (if m.proved_optimal then ", proved" else ""))
                  telemetry.Cloudia.Advisor.members
            | None -> ());
            if telemetry.Cloudia.Advisor.stop_reason = Cloudia.Solver.Proven_optimal then
              Printf.printf "optimality          : proven (under the solver's cost rounding)\n";
            Printf.printf "default cost        : %.3f ms\n" report.Cloudia.Advisor.default_cost;
            Printf.printf "optimized cost      : %.3f ms\n" report.Cloudia.Advisor.cost;
            Printf.printf "improvement         : %.1f%%\n" report.Cloudia.Advisor.improvement_pct;
            Printf.printf "terminated          : %d instance(s)\n"
              (List.length report.Cloudia.Advisor.terminated);
            Printf.printf "plan                : %s\n"
              (Format.asprintf "%a" Cloudia.Types.pp_plan report.Cloudia.Advisor.plan)
          end;
          0))

let advise_cmd =
  let workload_arg =
    Arg.(value & opt workload_conv Behavioral & info [ "workload" ] ~doc:"behavioral, aggregation or kv.")
  in
  let strategy_arg =
    Arg.(value & opt string "cp" & info [ "strategy" ]
           ~doc:"g1, g2, r1, r2, r2d (descent), anneal, cp, mip or portfolio.")
  in
  let scale_arg =
    Arg.(value & opt int 4 & info [ "scale" ] ~doc:"Mesh side / tree depth / front-end count.")
  in
  let over_arg =
    Arg.(value & opt float 0.1 & info [ "over-allocation" ] ~doc:"Extra-instance ratio (0.1 = 10%).")
  in
  let metric_arg =
    Arg.(value & opt metric_conv Cloudia.Metrics.Mean & info [ "metric" ] ~doc:"mean, mean+sd or p99.")
  in
  let time_arg =
    Arg.(value & opt float 10.0 & info [ "time-limit" ] ~doc:"Solver budget in seconds (cp/mip/r2/anneal/portfolio).")
  in
  let domains_arg =
    Arg.(value & opt int 4 & info [ "domains" ]
           ~doc:"Parallel workers for --strategy portfolio (one OCaml domain each).")
  in
  let graph_spec_arg =
    Arg.(value & opt (some string) None & info [ "graph-spec" ]
           ~doc:"Template spec, e.g. 'mesh2d 4 4' or 'tree 3 2' (overrides --workload's graph).")
  in
  let graph_file_arg =
    Arg.(value & opt (some string) None & info [ "graph-file" ]
           ~doc:"Edge-list file describing the communication graph.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ]
           ~doc:"Write the solver telemetry trace (spans, incumbent updates, counters) to $(docv).")
  in
  let trace_format_arg =
    Arg.(value & opt trace_format_conv Jsonl & info [ "trace-format" ]
           ~doc:"Trace file format: jsonl (one event per line) or chrome (trace_event JSON for chrome://tracing / Perfetto).")
  in
  let obs_summary_arg =
    Arg.(value & flag & info [ "obs-summary" ]
           ~doc:
             "Print the run's trace report to stderr, as $(b,obs report) would: per-domain \
              span tree with self times, histograms, time-to-quality, counters and gauges.")
  in
  let strict_lint_arg =
    Arg.(value & flag & info [ "strict-lint" ]
           ~doc:"Treat lint warnings as fatal: the pre-solve gate blocks the run instead of \
                 recording them in the report's diagnostics.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the full report (costs, plan, telemetry, diagnostics) as one JSON object on stdout.")
  in
  let on_missing_arg =
    Arg.(value & opt on_missing_conv Cloudia.Advisor.Fail & info [ "on-missing" ]
           ~doc:"Policy for unsampled pairs under fault-injected measurement: \
                 fail (refuse, LAT007), impute (conservative estimates, LAT008) \
                 or drop (terminate uncovered instances, LAT009).")
  in
  let probe_loss_arg =
    Arg.(value & opt float 0.0 & info [ "probe-loss" ]
           ~doc:"Base per-link probe loss probability (0 disables; measurement \
                 then runs the staged scheme probe by probe with retries).")
  in
  let stragglers_arg =
    Arg.(value & opt float 0.0 & info [ "stragglers" ]
           ~doc:"Fraction of hosts that periodically spike their RTTs.")
  in
  let straggler_factor_arg =
    Arg.(value & opt float 10.0 & info [ "straggler-factor" ]
           ~doc:"RTT multiplier inside a straggler's spike window.")
  in
  let crash_arg =
    Arg.(value & opt float 0.0 & info [ "crash" ]
           ~doc:"Fraction of instances that crash mid-measurement and stop answering.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 17 & info [ "fault-seed" ]
           ~doc:"Seed of the fault realization (which links lose, who straggles, who crashes).")
  in
  Cmd.v
    (Cmd.info "advise" ~doc:"Run the ClouDiA pipeline for a workload")
    Term.(
      const advise $ provider_arg $ seed_arg $ workload_arg $ strategy_arg $ scale_arg
      $ over_arg $ metric_arg $ time_arg $ domains_arg $ graph_spec_arg $ graph_file_arg
      $ trace_arg $ trace_format_arg $ obs_summary_arg $ strict_lint_arg $ json_arg
      $ on_missing_arg $ probe_loss_arg $ stragglers_arg $ straggler_factor_arg
      $ crash_arg $ fault_seed_arg)

(* ---- measure ---- *)

let measure provider seed count =
  let env = Cloudsim.Env.allocate (Prng.create seed) (Cloudsim.Provider.get provider) ~count in
  let truth =
    Netmeasure.Schemes.link_vector
      { Netmeasure.Schemes.means = Cloudsim.Env.mean_matrix env; samples = [||]; sim_seconds = 0.0 }
  in
  Printf.printf "Measurement schemes on %s, %d instances (%d links)\n\n"
    (Cloudsim.Provider.to_string provider) count (Array.length truth);
  Printf.printf "%-15s %10s %12s %10s %14s\n" "scheme" "samples" "sim time" "coverage" "norm. RMSE";
  let report name (m : Netmeasure.Schemes.t) =
    let v = Netmeasure.Schemes.link_vector m in
    let covered = Array.for_all Float.is_finite v in
    let rmse =
      if covered then Printf.sprintf "%.5f" (Stats.Error.normalized_rmse ~baseline:truth v)
      else "n/a (gaps)"
    in
    let total = Array.fold_left (fun a row -> a + Array.fold_left ( + ) 0 row) 0 m.Netmeasure.Schemes.samples in
    Printf.printf "%-15s %10d %10.2f s %9.1f%% %14s\n" name total m.Netmeasure.Schemes.sim_seconds
      (100.0 *. Netmeasure.Schemes.coverage m) rmse
  in
  let rng = Prng.create (seed + 1) in
  report "token-passing" (Netmeasure.Schemes.token_passing rng env ~samples_per_pair:10);
  report "uncoordinated" (Netmeasure.Schemes.uncoordinated rng env ~rounds:(10 * (count - 1)));
  report "staged" (Netmeasure.Schemes.staged rng env ~ks:10 ~stages:(10 * 2 * (count - 1)));
  0

let measure_cmd =
  let count_arg = Arg.(value & opt int 20 & info [ "count" ] ~doc:"Instances to allocate.") in
  Cmd.v
    (Cmd.info "measure" ~doc:"Compare the three measurement schemes")
    Term.(const measure $ provider_arg $ seed_arg $ count_arg)

(* ---- survey ---- *)

let survey provider seed count =
  let env = Cloudsim.Env.allocate (Prng.create seed) (Cloudsim.Provider.get provider) ~count in
  let lats = ref [] in
  for i = 0 to count - 1 do
    for j = 0 to count - 1 do
      if i <> j then lats := Cloudsim.Env.mean_latency env i j :: !lats
    done
  done;
  let arr = Array.of_list !lats in
  let cdf = Stats.Cdf.of_samples arr in
  Printf.printf "%s: pairwise mean latency CDF (%d instances)\n"
    (Cloudsim.Provider.to_string provider) count;
  List.iter
    (fun (x, f) -> Printf.printf "  %.3f ms  %5.1f%%\n" x (100.0 *. f))
    (Stats.Cdf.series ~points:12 cdf);
  0

let survey_cmd =
  let count_arg = Arg.(value & opt int 50 & info [ "count" ] ~doc:"Instances to allocate.") in
  Cmd.v
    (Cmd.info "survey" ~doc:"Latency heterogeneity survey for a provider")
    Term.(const survey $ provider_arg $ seed_arg $ count_arg)

(* ---- plan: bring-your-own measurements ---- *)

let plan_cmd_run seed costs_file graph_spec objective_name strategy_name time_limit domains
    json =
  match
    match
      (objective_of_arg objective_name, load_costs costs_file, Graphs.Graph_io.parse_spec graph_spec)
    with
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    | Ok objective, Ok costs, Ok graph -> (
        match strategy_of_string ~time_limit ~domains ~objective strategy_name with
        | Error (`Msg m) -> Error m
        | Ok strategy -> (
            match
              Cloudia.Advisor.solve ~full:false (Prng.create seed) strategy objective graph costs
            with
            | exception Invalid_argument m -> Error m
            | exception Lint.Diagnostic.Failed ds ->
                Error
                  (Format.asprintf "%aplan: blocked by lint errors" Lint.Diagnostic.render
                     (Lint.Diagnostic.errors ds))
            | s -> Ok (objective, s)))
  with
  | Error e ->
      prerr_endline e;
      2
  | Ok (objective, { Cloudia.Advisor.problem; plan; cost; default_cost; unused; diagnostics; _ })
    ->
      (* Tolerated findings go to stderr, as in advise; the JSON on
         stdout has no diagnostics field, so they are rendered either way. *)
      Format.eprintf "%a" Lint.Diagnostic.render diagnostics;
      if json then begin
        print_json
          (Obs.Json.Obj
             [
               ("instances", Obs.Json.of_int (Cloudia.Types.instance_count problem));
               ("nodes", Obs.Json.of_int (Cloudia.Types.node_count problem));
               ("objective", Obs.Json.Str (Cloudia.Cost.objective_to_string objective));
               ("seed", Obs.Json.of_int seed);
               ("default_cost_ms", num17 default_cost);
               ("optimized_cost_ms", num17 cost);
               ( "improvement_pct",
                 num17 (Cloudia.Cost.improvement ~default:default_cost ~optimized:cost)
               );
               ("plan", ints (Array.to_list plan));
               ("terminate", ints unused);
             ])
      end
      else begin
        Printf.printf "instances      : %d\n" (Cloudia.Types.instance_count problem);
        Printf.printf "nodes          : %d\n" (Cloudia.Types.node_count problem);
        Printf.printf "objective      : %s\n"
          (Cloudia.Cost.objective_to_string objective);
        Printf.printf "default cost   : %.3f ms\n" default_cost;
        Printf.printf "optimized cost : %.3f ms (%.1f%% better)\n" cost
          (Cloudia.Cost.improvement ~default:default_cost ~optimized:cost);
        Printf.printf "plan           : %s\n"
          (Format.asprintf "%a" Cloudia.Types.pp_plan plan);
        match unused with
        | [] -> ()
        | unused ->
            Printf.printf "terminate      : instances %s\n"
              (String.concat ", " (List.map string_of_int unused))
      end;
      0

let plan_cmd =
  let costs_arg =
    Arg.(required & opt (some string) None & info [ "costs-file" ]
           ~doc:"Cost matrix measured on your own allocation (ms, zero diagonal); CSV or \
                 the CLDALAT1 binary format, sniffed by magic.")
  in
  let graph_arg =
    Arg.(value & opt string "mesh2d 3 3" & info [ "graph-spec" ]
           ~doc:"Communication graph template, e.g. 'mesh2d 4 4', 'tree 3 2'.")
  in
  let objective_arg =
    Arg.(value & opt string "ll" & info [ "objective" ] ~doc:"ll (longest link) or lp (longest path).")
  in
  let strategy_arg =
    Arg.(value & opt string "cp" & info [ "strategy" ]
           ~doc:"g1, g2, r1, r2, r2d (descent), anneal, cp, mip or portfolio.")
  in
  let time_arg =
    Arg.(value & opt float 10.0 & info [ "time-limit" ] ~doc:"Solver budget in seconds.")
  in
  let domains_arg =
    Arg.(value & opt int 4 & info [ "domains" ]
           ~doc:"Parallel workers for --strategy portfolio (one OCaml domain each).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the report as one JSON object on stdout (full float precision).")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Solve a deployment from your own measured cost matrix")
    Term.(
      const plan_cmd_run $ seed_arg $ costs_arg $ graph_arg $ objective_arg $ strategy_arg
      $ time_arg $ domains_arg $ json_arg)

(* ---- lint: validate an instance without solving ---- *)

let lint_run costs_file graph_spec graph_file objective_name time_limit domains strict json =
  (* The loaders do not validate, so every problem is reported at once,
     with codes. *)
  let matrix =
    match costs_file with
    | None -> Ok (None, [])
    | Some file -> (
        match Cloudia.Matrix_io.load file with
        | Ok lat -> Ok (Some lat, [])
        | Error (`Lint ds) -> Ok (None, ds)
        | Error (`Msg e) -> Error ("costs: " ^ e))
  in
  match (objective_of_arg objective_name, matrix, load_graph graph_spec graph_file) with
  | _ when costs_file = None && graph_spec = None && graph_file = None ->
      prerr_endline "nothing to lint: give --costs-file and/or --graph-spec/--graph-file";
      2
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline e;
      2
  | Ok objective, Ok (lat, matrix_diags), Ok (graph, graph_diags) ->
      (* lint names no strategy, so the budget and domain count it was
         given are checked as given. *)
      let diagnostics =
        matrix_diags @ graph_diags
        @ Cloudia.Advisor.gate ~full:true (Option.map fst graph) lat objective None
        @ Lint.Instance.check_config ?time_limit ?domains
            ?pool:(Option.map Lat_matrix.dim lat) ()
      in
      if json then print_endline (Lint.Diagnostic.to_json diagnostics)
      else begin
        Format.printf "%a" Lint.Diagnostic.render diagnostics;
        Printf.printf "lint: %d error(s), %d warning(s), %d info(s)\n"
          (List.length (Lint.Diagnostic.errors diagnostics))
          (List.length (Lint.Diagnostic.warnings diagnostics))
          (List.length diagnostics
          - List.length (Lint.Diagnostic.errors diagnostics)
          - List.length (Lint.Diagnostic.warnings diagnostics))
      end;
      if blocks ~strict diagnostics then 1 else 0

let lint_cmd =
  let costs_arg =
    Arg.(value & opt (some string) None & info [ "costs-file" ]
           ~doc:"Cost matrix to validate, CSV or the CLDALAT1 binary format, sniffed by magic \
                 (NaN/inf/negative entries are reported, not rejected).")
  in
  let graph_spec_arg =
    Arg.(value & opt (some string) None & info [ "graph-spec" ]
           ~doc:"Communication graph template to validate, e.g. 'mesh2d 4 4'.")
  in
  let graph_file_arg =
    Arg.(value & opt (some string) None & info [ "graph-file" ]
           ~doc:"Edge-list file to validate (self-loops, range errors and duplicates are reported).")
  in
  let objective_arg =
    Arg.(value & opt string "ll" & info [ "objective" ]
           ~doc:"ll (longest link) or lp (longest path; enables the acyclicity check).")
  in
  let time_arg =
    Arg.(value & opt (some float) None & info [ "time-limit" ]
           ~doc:"Solver budget to sanity-check (seconds).")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "domains" ]
           ~doc:"Portfolio domain count to sanity-check.")
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on warnings, not just errors.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the diagnostics as a JSON array on stdout.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Validate a deployment instance (cost matrix, communication graph, solver config) without solving")
    Term.(
      const lint_run $ costs_arg $ graph_spec_arg $ graph_file_arg $ objective_arg
      $ time_arg $ domains_arg $ strict_arg $ json_arg)

(* ---- convert: CSV <-> binary cost matrices ---- *)

let convert_run input output storage_name =
  match Lat_matrix.storage_of_string (String.lowercase_ascii storage_name) with
  | None ->
      prerr_endline "storage must be float64 (f64) or float32 (f32)";
      2
  | Some storage -> (
      (* The raw loader keeps NaN unsampled markers: binary is the
         lossless carrier for partial matrices, and converting one back
         to CSV prints the canonical "nan" cells. *)
      match load_costs input with
      | Error e ->
          prerr_endline ("convert: " ^ e);
          2
      | Ok lat -> (
          let to_binary =
            Filename.check_suffix output ".lat" || Filename.check_suffix output ".bin"
          in
          match
            if to_binary then
              Cloudia.Matrix_io.save_binary output (Lat_matrix.with_storage storage lat)
            else
              Out_channel.with_open_text output (fun oc ->
                  Out_channel.output_string oc
                    (Cloudia.Matrix_io.print lat))
          with
          | exception Sys_error e ->
              prerr_endline ("convert: " ^ e);
              2
          | () ->
              Printf.printf "%s: %dx%d matrix -> %s (%s)\n" input (Lat_matrix.dim lat)
                (Lat_matrix.dim lat) output
                (if to_binary then "binary " ^ Lat_matrix.storage_to_string storage
                 else "csv");
              0))

let convert_cmd =
  let input_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT"
           ~doc:"Source matrix: CSV or CLDALAT1 binary, sniffed by magic.")
  in
  let output_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT"
           ~doc:"Destination file. A .lat or .bin suffix writes the binary format; \
                 anything else writes CSV.")
  in
  let storage_arg =
    Arg.(value & opt string "float64" & info [ "storage" ]
           ~doc:"Binary element width: float64 (exact) or float32 (half the bytes, \
                 values quantized to single precision).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a cost matrix between CSV and the mmap-able binary format")
    Term.(const convert_run $ input_arg $ output_arg $ storage_arg)

(* ---- redeploy ---- *)

let redeploy provider seed epochs change_prob migration_cost =
  let graph = Graphs.Templates.mesh2d ~rows:3 ~cols:3 in
  let config =
    {
      Cloudia.Redeploy.default_config with
      Cloudia.Redeploy.epochs;
      change_prob;
      migration_cost;
    }
  in
  let s =
    Cloudia.Redeploy.simulate ~config (Prng.create seed) (Cloudsim.Provider.get provider)
      ~graph ~over_allocation:0.2
  in
  Printf.printf "Re-deployment over %d epochs (change prob %.0f%%, migration cost %.2f)\n\n"
    epochs (change_prob *. 100.0) migration_cost;
  Printf.printf "  %5s %8s %12s %12s %9s\n" "epoch" "changed" "running" "candidate" "migrate";
  List.iter
    (fun r ->
      Printf.printf "  %5d %8s %9.3f ms %9.3f ms %9s\n" r.Cloudia.Redeploy.epoch
        (if r.Cloudia.Redeploy.changed then "yes" else "-")
        r.Cloudia.Redeploy.cost_current r.Cloudia.Redeploy.cost_candidate
        (if r.Cloudia.Redeploy.migrated then "YES" else "-"))
    s.Cloudia.Redeploy.records;
  Printf.printf "\n  migrations: %d\n" s.Cloudia.Redeploy.migrations;
  Printf.printf "  total cost: adaptive %.3f | static %.3f | oracle %.3f\n"
    s.Cloudia.Redeploy.adaptive_total s.Cloudia.Redeploy.static_total
    s.Cloudia.Redeploy.oracle_total;
  0

let redeploy_cmd =
  let epochs_arg = Arg.(value & opt int 15 & info [ "epochs" ] ~doc:"Simulation horizon.") in
  let change_arg =
    Arg.(value & opt float 0.4 & info [ "change-prob" ] ~doc:"Per-epoch network change probability.")
  in
  let migration_arg =
    Arg.(value & opt float 0.5 & info [ "migration-cost" ] ~doc:"One-off migration cost.")
  in
  Cmd.v
    (Cmd.info "redeploy" ~doc:"Simulate iterative re-deployment (Sect. 2.2.1)")
    Term.(const redeploy $ provider_arg $ seed_arg $ epochs_arg $ change_arg $ migration_arg)

(* ---- bandwidth ---- *)

let bandwidth provider seed nodes =
  let rng = Prng.create seed in
  let env =
    Cloudsim.Env.allocate rng (Cloudsim.Provider.get provider) ~count:(nodes * 12 / 10)
  in
  let graph = Graphs.Templates.ring ~n:nodes in
  let default_plan = Array.init nodes (fun i -> i) in
  let default_bw = Cloudia.Bandwidth.bottleneck_gbps env graph default_plan in
  let _, optimized_bw =
    Cloudia.Bandwidth.solve_cp
      ~options:{ Cloudia.Cp_solver.default_options with time_limit = 10.0 }
      rng env graph
  in
  Printf.printf "Bottleneck bandwidth of a %d-node ring pipeline on %s\n" nodes
    (Cloudsim.Provider.to_string provider);
  Printf.printf "  default   : %.2f Gbit/s\n" default_bw;
  Printf.printf "  optimized : %.2f Gbit/s (%.0f%% higher)\n" optimized_bw
    ((optimized_bw -. default_bw) /. default_bw *. 100.0);
  0

let bandwidth_cmd =
  let nodes_arg = Arg.(value & opt int 10 & info [ "nodes" ] ~doc:"Pipeline stages.") in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Optimize the bottleneck-bandwidth criterion (Sect. 8)")
    Term.(const bandwidth $ provider_arg $ seed_arg $ nodes_arg)

(* ---- obs: trace forensics ---- *)

let obs_report trace_path =
  match Obs.Trace.load trace_path with
  | Error msg ->
      prerr_endline ("obs report: " ^ msg);
      2
  | Ok t ->
      Obs.Trace.report stdout t;
      0

let obs_compare base_path current_path tolerance force =
  let load what path =
    match Obs.Trace.load path with
    | Ok t -> Ok t
    | Error msg -> Error (Printf.sprintf "obs compare: %s trace: %s" what msg)
  in
  match (load "base" base_path, load "current" current_path) with
  | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      2
  | Ok base, Ok current -> (
      match Obs.Trace.header_mismatch base current with
      | Some why when not force ->
          Printf.eprintf
            "obs compare: refusing to compare traces from different runs (%s); pass --force to override\n"
            why;
          2
      | mismatch ->
          (match mismatch with
          | Some why -> Printf.eprintf "obs compare: warning: %s (--force)\n" why
          | None -> ());
          let checks = Obs.Trace.compare_traces ~tolerance ~base ~current () in
          Obs.Trace.print_checks stdout checks;
          let failures = List.length (List.filter (fun c -> not c.Obs.Trace.ok) checks) in
          if failures > 0 then begin
            Printf.printf "obs compare: %d regression(s)\n" failures;
            1
          end
          else begin
            Printf.printf "obs compare: no regressions (%d check(s))\n" (List.length checks);
            0
          end)

let obs_cmd =
  let trace_pos n doc =
    Arg.(required & pos n (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let report_cmd =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Parse a JSONL trace into a span tree with self/total times and allocation, \
            histogram percentile tables, and time-to-quality metrics from incumbent streams")
      Term.(const obs_report $ trace_pos 0 "JSONL trace written by --trace.")
  in
  let compare_cmd =
    let tolerance_arg =
      Arg.(value & opt float 1.3 & info [ "tolerance" ]
             ~doc:"Multiplicative regression band for timing metrics (1.3 = +30%).")
    in
    let force_arg =
      Arg.(value & flag & info [ "force" ]
             ~doc:"Compare even when the trace headers (schema, seed, argv) disagree.")
    in
    Cmd.v
      (Cmd.info "compare"
         ~doc:
           "Diff two JSONL traces with direction-aware regression bands; exits 1 when the \
            current trace regresses, 2 when the traces are not comparable")
      Term.(
        const obs_compare
        $ trace_pos 0 "Baseline trace."
        $ trace_pos 1 "Current trace."
        $ tolerance_arg $ force_arg)
  in
  Cmd.group
    (Cmd.info "obs" ~doc:"Trace forensics: report on and compare observability traces")
    [ report_cmd; compare_cmd ]

(* ---- serve: the advising daemon ---- *)

let serve socket domains queue_capacity cache_capacity default_deadline =
  let config =
    {
      Serve.Server.socket_path = socket;
      domains;
      queue_capacity;
      cache_capacity;
      default_deadline;
    }
  in
  (* Block SIGTERM/SIGINT before spawning anything, so every thread and
     domain inherits the mask and delivery funnels into the dedicated
     [Thread.wait_signal] thread below. An asynchronous [Signal_handle]
     would not do: the main thread spends shutdown blocked in a
     [pthread_cond_wait] (thread join), where OCaml signal handlers are
     not guaranteed to run. *)
  let signals = [ Sys.sigterm; Sys.sigint ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  match Serve.Server.start config with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "serve: cannot listen on %s: %s\n" socket (Unix.error_message e);
      2
  | exception Invalid_argument m ->
      prerr_endline ("serve: " ^ m);
      2
  | t ->
      let (_ : Thread.t) =
        Thread.create
          (fun () ->
            let (_ : int) = Thread.wait_signal signals in
            Serve.Server.signal_stop t)
          ()
      in
      Printf.eprintf "serve: listening on %s (%d worker domain(s))\n%!" socket domains;
      Serve.Server.wait t;
      (* End-of-run latency profile + serve counters, one JSON object on
         stdout — what the CI smoke job validates after SIGTERM. *)
      let s = Serve.Server.latency_snapshot () in
      let q p =
        if s.Obs.Histogram.hist_count = 0 then Obs.Json.Null
        else num6 (Obs.Histogram.quantile_of s p)
      in
      let counters =
        List.filter
          (fun (k, _) -> String.starts_with ~prefix:"serve." k)
          (Obs.Counter.snapshot ())
      in
      print_json
        (Obs.Json.Obj
           ([
              ("requests", Obs.Json.of_int s.Obs.Histogram.hist_count);
              ("p50_ms", q 0.5);
              ("p99_ms", q 0.99);
              ("p999_ms", q 0.999);
            ]
           @ List.map (fun (k, v) -> (k, Obs.Json.of_int v)) counters));
      0

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon.")

let serve_cmd =
  let domains_arg =
    Arg.(value & opt int 2 & info [ "domains" ] ~doc:"Worker domains solving jobs in parallel.")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-capacity" ]
           ~doc:"Queued jobs beyond which new submissions are rejected (backpressure).")
  in
  let cache_arg =
    Arg.(value & opt int 32 & info [ "cache-capacity" ]
           ~doc:"Entries per fingerprint-keyed LRU (matrices, incumbents, results), and \
                 clusterings per matrix.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0 & info [ "default-deadline" ]
           ~doc:"Deadline in seconds for jobs that do not carry one.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the advising daemon: advise jobs over a Unix socket, cached by cost-matrix \
             fingerprint; SIGTERM drains and prints a latency summary")
    Term.(
      const serve $ socket_arg $ domains_arg $ queue_arg $ cache_arg $ deadline_arg)

(* ---- client: submit to a running daemon ---- *)

(* Retry the connect for a grace period so scripts can start daemon and
   client back-to-back without racing the bind. *)
let client_connect socket ~wait_s =
  let deadline = Obs.Clock.now_s () +. wait_s in
  let rec go () =
    match Serve.Client.connect socket with
    | c -> Ok c
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Obs.Clock.now_s () < deadline ->
        Unix.sleepf 0.05;
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "client: %s: %s" socket (Unix.error_message e))
  in
  go ()

let wait_arg =
  Arg.(value & opt float 5.0 & info [ "connect-timeout" ]
         ~doc:"Seconds to keep retrying the connect while the daemon starts.")

let with_client socket wait_s f =
  match client_connect socket ~wait_s with
  | Error m ->
      prerr_endline m;
      2
  | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
          match f c with
          | code -> code
          | exception End_of_file ->
              prerr_endline "client: daemon closed the connection";
              2
          | exception Serve.Protocol.Protocol_error m ->
              prerr_endline ("client: " ^ m);
              2
          | exception Unix.Unix_error (e, _, _) ->
              prerr_endline ("client: " ^ Unix.error_message e);
              2)

let client_ping socket wait_s =
  with_client socket wait_s (fun c ->
      Serve.Client.ping c;
      print_endline "pong";
      0)

let client_stats socket wait_s =
  with_client socket wait_s (fun c ->
      print_json
        (Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.of_int v)) (Serve.Client.stats c)));
      0)

let client_advise socket wait_s costs_file graph_spec solver_name objective_name seed
    seed_step budget max_moves clusters deadline tenant id repeat =
  let parsed =
    match
      ( objective_of_arg objective_name,
        (match Serve.Protocol.solver_of_string (String.lowercase_ascii solver_name) with
        | s -> Ok s
        | exception Serve.Protocol.Protocol_error _ ->
            Error "solver must be cp, anneal, greedy or descent"),
        load_costs costs_file,
        Graphs.Graph_io.parse_spec graph_spec )
    with
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e -> Error e
    | Ok objective, Ok solver, Ok costs, Ok graph -> Ok (objective, solver, costs, graph)
  in
  match parsed with
  | Error e ->
      prerr_endline ("client advise: " ^ e);
      2
  | Ok (objective, solver, costs, graph) ->
      with_client socket wait_s (fun c ->
          let failures = ref 0 in
          for k = 0 to repeat - 1 do
            let job =
              {
                Serve.Protocol.id = (if k = 0 then id else Printf.sprintf "%s-%d" id (k + 1));
                tenant;
                seed = seed + (k * seed_step);
                solver;
                objective;
                budget;
                deadline;
                max_moves;
                clusters;
                graph;
                costs;
              }
            in
            let reply = Serve.Client.advise c job in
            (match reply with
            | Serve.Protocol.Result _ -> ()
            | _ -> incr failures);
            print_json (Serve.Protocol.json_of_reply reply)
          done;
          if !failures > 0 then 1 else 0)

let client_cmd =
  let ping_cmd =
    Cmd.v
      (Cmd.info "ping" ~doc:"Round-trip liveness check")
      Term.(const client_ping $ socket_arg $ wait_arg)
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats" ~doc:"Print daemon counters and cache occupancy as JSON")
      Term.(const client_stats $ socket_arg $ wait_arg)
  in
  let advise_cmd =
    let costs_arg =
      Arg.(required & opt (some string) None & info [ "costs-file" ]
             ~doc:"Cost matrix (CSV or CLDALAT1 binary, sniffed by magic).")
    in
    let graph_arg =
      Arg.(value & opt string "mesh2d 3 3" & info [ "graph-spec" ]
             ~doc:"Communication graph template, e.g. 'mesh2d 4 4'.")
    in
    let solver_arg =
      Arg.(value & opt string "anneal" & info [ "solver" ]
             ~doc:"cp, anneal, greedy or descent.")
    in
    let objective_arg =
      Arg.(value & opt string "ll" & info [ "objective" ]
             ~doc:"ll (longest link) or lp (longest path).")
    in
    let seed_step_arg =
      Arg.(value & opt int 0 & info [ "seed-step" ]
             ~doc:"Seed increment between repeats (0 repeats the identical job, exercising \
                   the result memo; non-zero exercises warm starts).")
    in
    let budget_arg =
      Arg.(value & opt float 2.0 & info [ "budget" ] ~doc:"Solver budget per job, seconds.")
    in
    let moves_arg =
      Arg.(value & opt (some int) None & info [ "max-moves" ]
             ~doc:"Annealing move budget (makes the run deterministic and cacheable).")
    in
    let clusters_arg =
      Arg.(value & opt (some int) None & info [ "clusters" ]
             ~doc:"CP cluster-count override.")
    in
    let deadline_job_arg =
      Arg.(value & opt (some float) None & info [ "deadline" ]
             ~doc:"Per-job deadline in seconds (queue wait included).")
    in
    let tenant_arg =
      Arg.(value & opt string "cli" & info [ "tenant" ] ~doc:"Tenant label for telemetry.")
    in
    let id_arg =
      Arg.(value & opt string "job" & info [ "id" ] ~doc:"Job id (repeats get -2, -3, ... suffixes).")
    in
    let repeat_arg =
      Arg.(value & opt int 1 & info [ "repeat" ] ~doc:"Submit the job this many times.")
    in
    Cmd.v
      (Cmd.info "advise"
         ~doc:"Submit advise job(s); prints one JSON reply per line, exits non-zero if any \
               job was rejected or failed")
      Term.(
        const client_advise $ socket_arg $ wait_arg $ costs_arg $ graph_arg $ solver_arg
        $ objective_arg $ seed_arg $ seed_step_arg $ budget_arg $ moves_arg $ clusters_arg
        $ deadline_job_arg $ tenant_arg $ id_arg $ repeat_arg)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running advising daemon")
    [ ping_cmd; stats_cmd; advise_cmd ]

let () =
  let doc = "ClouDiA: a deployment advisor for public clouds (simulated)" in
  let info = Cmd.info "cloudia" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            advise_cmd;
            plan_cmd;
            lint_cmd;
            convert_cmd;
            measure_cmd;
            survey_cmd;
            redeploy_cmd;
            bandwidth_cmd;
            obs_cmd;
            serve_cmd;
            client_cmd;
          ]))
