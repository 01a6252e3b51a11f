(* Shared helpers for the figure-reproduction benchmarks. *)

(* Smoke mode (--smoke on the driver): every figure runs with capped solver
   budgets and divided-down sample counts so the whole suite finishes in a
   few seconds — a CI-friendly "does every section still execute" check.
   Problem shapes (graphs, instance counts) stay untouched; only effort
   knobs shrink, so the code paths exercised are the same. *)
let smoke = ref false

(* Wall-clock budget for a solver call: capped hard in smoke mode. *)
let budget seconds = if !smoke then Float.min seconds 0.05 else seconds

(* Effort counts (trials, ticks, queries, rounds): divided by 20 in smoke
   mode, floored so the measurement stays meaningful. *)
let trials ?(floor = 1) n = if !smoke then max floor (n / 20) else n

(* Optional CSV export: when CLOUDIA_CSV_DIR is set, every figure that
   produces a series also writes it as <dir>/<name>.csv for re-plotting. *)
let csv_dir = Sys.getenv_opt "CLOUDIA_CSV_DIR"

let write_csv name headers rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (String.concat "," headers);
          output_char oc '\n';
          List.iter
            (fun row ->
              output_string oc (String.concat "," row);
              output_char oc '\n')
            rows);
      Printf.printf "  [csv: %s]\n" path

(* Machine-readable metrics: sections record named scalars (moves/sec,
   allocation rates, kernel timings) and the driver flushes them as one
   flat JSON object to the path in CLOUDIA_BENCH_JSON — the input of the
   CI perf-regression gate (tools/bench_gate). *)
let metrics : (string, float) Hashtbl.t = Hashtbl.create 32

let metric name value = Hashtbl.replace metrics name value

let flush_metrics () =
  match Sys.getenv_opt "CLOUDIA_BENCH_JSON" with
  | None -> ()
  | Some path ->
      let entries =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) metrics [])
      in
      (* One key per line keeps baseline diffs readable. Json.of_float
         writes %.17g (every float exact) and null for NaN/inf, which
         bench_gate treats as a missing metric. *)
      let field (k, v) =
        Printf.sprintf "  %s: %s" (Obs.Json.to_string (Obs.Json.Str k))
          (Obs.Json.to_string (Obs.Json.of_float v))
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\n";
          output_string oc (String.concat ",\n" (List.map field entries));
          output_string oc "\n}\n");
      Printf.printf "Bench metrics written to %s (%d entries).\n" path (List.length entries)

(* Anytime-profile metrics from an incumbent trace [(elapsed_s, cost)] in
   time order over a run of [window_s] seconds: the primal integral (mean
   relative gap between the running-best cost and the final cost) and the
   fraction of the window spent before the curve is within {10,5,1}% of
   the final cost. Dimensionless on purpose: the CI smoke run's absolute
   times are jittery, but how quickly a solver closes its own gap is
   stable enough to band. *)
let anytime_metrics ~key ~window_s trace =
  match trace with
  | [] -> ()
  | (t0, _) :: _ ->
      let curve =
        List.fold_left
          (fun acc (t, c) ->
            match acc with (_, best) :: _ when c >= best -> acc | _ -> (t, c) :: acc)
          [] trace
        |> List.rev
      in
      let final = snd (List.nth curve (List.length curve - 1)) in
      let denom = if Float.abs final > 0.0 then Float.abs final else 1.0 in
      let window = Float.max 1e-9 (window_s -. t0) in
      let rec integral = function
        | (t1, c1) :: (((t2, _) :: _) as rest) ->
            ((c1 -. final) /. denom *. (t2 -. t1)) +. integral rest
        | _ -> 0.0 (* last segment: gap 0 by definition of final *)
      in
      let primal_integral = integral curve /. window in
      Printf.printf "  anytime profile: primal integral %.4f over %.2f s window\n"
        primal_integral window;
      metric (key ^ ".primal_integral") primal_integral;
      List.iter
        (fun pct ->
          let target = final +. (pct /. 100.0 *. denom) +. 1e-12 in
          let hit =
            match List.find_opt (fun (_, c) -> c <= target) curve with
            | Some (t, _) -> t -. t0
            | None -> window
          in
          let frac = Float.min 1.0 (hit /. window) in
          Printf.printf "    within %4.1f%% of final after %5.1f%% of the window\n" pct
            (100.0 *. frac);
          metric (Printf.sprintf "%s.tt_within_%.0fpct_frac" key pct) frac)
        [ 1.0; 5.0; 10.0 ]

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n"

let subsection title = Printf.printf "\n--- %s ---\n" title

let provider name = Cloudsim.Provider.get name

let ec2 = provider Cloudsim.Provider.Ec2

let env_of ?(seed = 1) p ~count = Cloudsim.Env.allocate (Prng.create seed) p ~count

(* All ordered-pair mean latencies of an environment. *)
let link_means env =
  let n = Cloudsim.Env.count env in
  let out = Array.make (n * (n - 1)) 0.0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        out.(!k) <- Cloudsim.Env.mean_latency env i j;
        incr k
      end
    done
  done;
  out

let print_cdf ?(points = 12) ?csv label samples =
  let cdf = Stats.Cdf.of_samples samples in
  let series = Stats.Cdf.series ~points cdf in
  Printf.printf "%s (n=%d)\n" label (Array.length samples);
  Printf.printf "  %10s  %8s\n" "latency" "CDF";
  List.iter (fun (x, f) -> Printf.printf "  %7.3f ms  %7.1f%%\n" x (100.0 *. f)) series;
  match csv with
  | None -> ()
  | Some name ->
      write_csv name [ "latency_ms"; "cdf" ]
        (List.map (fun (x, f) -> [ Printf.sprintf "%.6f" x; Printf.sprintf "%.6f" f ]) series)

let print_trace ?(max_points = 14) ?csv label trace =
  (match csv with
  | None -> ()
  | Some name ->
      write_csv name [ "elapsed_s"; "best_cost_ms" ]
        (List.map (fun (t, c) -> [ Printf.sprintf "%.4f" t; Printf.sprintf "%.6f" c ]) trace));
  Printf.printf "%s\n" label;
  Printf.printf "  %10s  %12s\n" "elapsed" "best cost";
  let arr = Array.of_list trace in
  let n = Array.length arr in
  let shown =
    if n <= max_points then trace
    else
      (* Even subsample keeping first and last points. *)
      List.init max_points (fun k -> arr.(k * (n - 1) / (max_points - 1)))
  in
  List.iter (fun (t, c) -> Printf.printf "  %8.2f s  %9.3f ms\n" t c) shown;
  if n > max_points then Printf.printf "  (%d of %d incumbents shown)\n" max_points n

(* A problem built from an environment and a communication graph, using
   mean-latency measurement. *)
let problem_of ?(samples = 30) ~seed env graph =
  let costs = Cloudia.Metrics.estimate (Prng.create seed) env Cloudia.Metrics.Mean
      ~samples_per_pair:samples
  in
  Cloudia.Types.of_matrix ~graph costs

(* Budgets below run through [budget] so smoke mode caps every solver call
   in one place. *)
let cp_options ?(clusters = Some 20) ?(time_limit = 5.0) () =
  {
    Cloudia.Cp_solver.clusters;
    time_limit = budget time_limit;
    iteration_time_limit = None;
    use_labeling = true;
    bootstrap_trials = 10;
    symmetry_breaking = true;
  }

let mip_options ?(clusters = None) ?(time_limit = 10.0) () =
  {
    Cloudia.Mip_solver.clusters;
    time_limit = budget time_limit;
    node_limit = None;
    bootstrap_trials = 10;
  }

(* Per-section solver-effort report: the counter deltas accumulated while a
   section ran (pivots, nodes, probes, ...), one line per non-zero counter. *)
let print_counter_deltas id deltas =
  match deltas with
  | [] -> ()
  | deltas ->
      Printf.printf "[%s counters]\n" id;
      List.iter (fun (name, v) -> Printf.printf "  %-34s %12d\n" name v) deltas
