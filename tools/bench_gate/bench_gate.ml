(* CI perf-regression gate over the bench JSON metrics.

   Usage: bench_gate BASELINE.json CURRENT.json

   Both files are the flat {"metric": number} objects the bench harness
   writes to $CLOUDIA_BENCH_JSON. For every metric in the baseline the
   gate applies a direction-aware band:

     moves_per_sec_* / *.speedup   fail when current < 70% of baseline
     alloc_words_per_move_*        fail when current > 110% of baseline
     *.ns_per_run                  fail when current > 130% of baseline

   The committed baseline is a conservative envelope (the worst of
   several local runs), so the band absorbs runner jitter while still
   catching real regressions: a representation change that re-boxes the
   cost matrix shifts allocation per move by orders of magnitude, not
   10%.

   On top of the bands, the gate enforces the refactor's acceptance
   claim on the 64-node mesh: the delta kernel must sustain >= 2x the
   moves/sec of full evaluation, or allocate <= 1/5 the words per move.

   Exits 1 with a per-metric report when any check fails. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench_gate: " ^ s); exit 2) fmt

(* The flat {"metric": number} object the bench harness emits; a null
   value (a NaN or infinite measurement) counts as a missing metric. *)
let parse_metrics path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let fields =
    match Obs.Json.parse text with
    | Obs.Json.Obj fields -> fields
    | _ -> fail "%s: expected a JSON object" path
    | exception Obs.Json.Bad msg -> fail "%s: %s" path msg
  in
  let out = Hashtbl.create 32 in
  List.iter
    (fun (k, v) ->
      match v with
      | Obs.Json.Num raw -> Hashtbl.replace out k (float_of_string raw)
      | Obs.Json.Null -> ()
      | _ -> fail "%s: metric %S is not a number" path k)
    fields;
  out

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Lower_better carries an additive slack on top of the multiplicative
   band: the anytime metrics are dimensionless gaps/fractions whose
   baseline can be arbitrarily close to zero, where a pure ratio band
   would flag noise (0.001 -> 0.004 is not a regression). *)
type direction = Higher_better of float | Lower_better of float * float

let band key =
  if contains key "moves_per_sec" || contains key ".speedup" then Some (Higher_better 0.70)
  else if contains key "alloc_words_per_move" then Some (Lower_better (1.10, 0.0))
  else if contains key "ns_per_run" then Some (Lower_better (1.30, 0.0))
  else if contains key "primal_integral" then Some (Lower_better (3.0, 0.02))
  else if contains key "tt_within" then Some (Lower_better (5.0, 0.10))
  else if contains key "sym_node_ratio" then Some (Lower_better (1.2, 0.05))
  else if contains key "sparse_iters" then Some (Lower_better (1.5, 0.0))
  else if contains key "fig_scale" && contains key ".seconds" then Some (Lower_better (2.5, 1.0))
  else None

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
        prerr_endline "usage: bench_gate BASELINE.json CURRENT.json";
        exit 2
  in
  let baseline = parse_metrics baseline_path in
  let current = parse_metrics current_path in
  let failures = ref 0 in
  let check key base =
    match band key with
    | None -> ()
    | Some dir -> (
        match Hashtbl.find_opt current key with
        | None ->
            incr failures;
            Printf.printf "FAIL %-52s missing from %s\n" key current_path
        | Some cur ->
            let ok, verdict =
              match dir with
              | Higher_better frac ->
                  (cur >= frac *. base, Printf.sprintf ">= %.0f%% of baseline" (100. *. frac))
              | Lower_better (frac, slack) ->
                  ( cur <= (frac *. base) +. slack,
                    if slack > 0.0 then
                      Printf.sprintf "<= %.0f%% of baseline + %.3g" (100. *. frac) slack
                    else Printf.sprintf "<= %.0f%% of baseline" (100. *. frac) )
            in
            if not ok then incr failures;
            Printf.printf "%s %-52s %14.1f vs %14.1f  (%s)\n"
              (if ok then "ok  " else "FAIL")
              key cur base verdict)
  in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) baseline []) in
  List.iter (fun k -> check k (Hashtbl.find baseline k)) keys;
  (* Acceptance claim for the Lat_matrix refactor (64-node mesh): delta
     evaluation either >= 2x the moves/sec of full evaluation or >= 5x
     lower allocation per move. *)
  (match
     ( Hashtbl.find_opt current "fig_delta.mesh64.speedup",
       Hashtbl.find_opt current "fig_delta.mesh64.alloc_words_per_move_full",
       Hashtbl.find_opt current "fig_delta.mesh64.alloc_words_per_move_delta" )
   with
  | Some speedup, Some alloc_full, Some alloc_delta ->
      let ok = speedup >= 2.0 || alloc_full >= 5.0 *. alloc_delta in
      if not ok then incr failures;
      Printf.printf "%s mesh64 acceptance: speedup %.1fx, alloc %.1f vs %.1f words/move\n"
        (if ok then "ok  " else "FAIL")
        speedup alloc_full alloc_delta
  | _ ->
      incr failures;
      Printf.printf "FAIL mesh64 acceptance metrics missing from %s\n" current_path);
  (* Acceptance claims for the solver-scaling work (fig-scale): symmetry
     breaking halves the CP node count at 150 instances without changing
     the answer, the 150-instance LP routes to the sparse kernel and
     solves to optimality, branch and bound completes at 40 instances,
     and dense/sparse optima are bit-identical on the overlap LP. *)
  (let req key pred describe =
     match Hashtbl.find_opt current key with
     | Some v when pred v -> Printf.printf "ok   fig-scale acceptance: %s (%s = %g)\n" describe key v
     | Some v ->
         incr failures;
         Printf.printf "FAIL fig-scale acceptance: %s (%s = %g)\n" describe key v
     | None ->
         incr failures;
         Printf.printf "FAIL fig-scale acceptance: %s missing from %s\n" key current_path
   in
   req "fig_scale.cp150.sym_node_ratio" (fun v -> v <= 0.5) "CP nodes at least halved at 150";
   req "fig_scale.cp150.cost_match" (fun v -> v = 1.0) "same CP cost with and without breaking";
   req "fig_scale.cp150.proven_sym" (fun v -> v = 1.0) "broken search still proves optimality";
   req "fig_scale.lp150.optimal" (fun v -> v = 1.0) "150-instance sparse LP solved to optimality";
   req "fig_scale.mip40.nodes" (fun v -> v >= 1.0) "40-instance branch and bound completed";
   req "fig_scale.sparse_dense.bitmatch" (fun v -> v = 1.0) "dense/sparse optima bit-identical");
  if !failures > 0 then begin
    Printf.printf "bench_gate: %d check(s) failed\n" !failures;
    exit 1
  end;
  Printf.printf "bench_gate: all checks passed\n"
