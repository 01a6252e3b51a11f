(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload from a seed for S seconds, checks its outputs, and
   prints a header line (build profile, OCaml version, cores, seed), one
   line per metric, and last a JSON object with [correct], [attempted],
   [failed] and [metrics]: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1]. Traced runs also write their spans
   to .bench_out/. See README.md beside this file. *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("plan_s", "s");
    ("improvement_pct", "%");
    ("peak_rss_mb", "MiB");
    ("req_p50_ms", "ms");
    ("req_p90_ms", "ms");
    ("solve_p50_ms", "ms");
    ("memo_p50_ms", "ms");
  ]

let per_layer_units =
  [
    ("cloudsim.allocate_ms", "ms");
    ("metrics.estimate_ms", "ms");
    ("lint.check_ms", "ms");
    ("clustering.cluster_ms", "ms");
    ("clustering.distinct_values", "count");
    ("cp.solve_ms", "ms");
    ("cp.nodes", "count");
    ("cp.failures", "count");
    ("cp.iterations", "count");
    ("cp.nodes_per_s", "1/s");
    ("cp.fail_ratio", "ratio");
    ("lp.mip_ms", "ms");
    ("lp.bb_nodes", "count");
    ("lp.pruned_frac", "ratio");
    ("lp.pivots", "count");
    ("lp.pivots_per_s", "1/s");
    ("lp.sparse_frac", "ratio");
    ("cost.eval_ms", "ms");
    ("stage_coverage", "ratio");
    ("trace.overhead_ms", "ms");
    ("protocol.encode_ms", "ms");
    ("protocol.decode_ms", "ms");
    ("protocol.frame_kib", "KiB");
    ("lat_matrix.fingerprint_ms", "ms");
    ("server.p50_ms", "ms");
    ("wire.p50_ms", "ms");
    ("gen.lag_p90_ms", "ms");
    ("cache.hit_frac", "ratio");
    ("cache.memo_frac", "ratio");
    ("cache.warm_frac", "ratio");
    ("anneal.ll_moves_per_s", "1/s");
    ("anneal.lp_moves_per_s", "1/s");
    ("delta_cost.ranks_ms", "ms");
    ("serve.sent", "count");
    ("serve.succeeded", "count");
    ("serve.rejected", "count");
    ("serve.failed", "count");
  ]

(* Every metric of the chosen kind, in declaration order; a layer the
   workload does not exercise reads 0. *)
let metrics units values =
  List.map
    (fun (name, unit_) ->
      Report.m name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    units

let workloads = [ "advise-ll-cp"; "advise-lp-mip"; "serve-mix" ]

let run_workload name ~seed ~seconds ~trace =
  match name with
  | "advise-ll-cp" | "advise-lp-mip" ->
      let spec = if name = "advise-ll-cp" then Advise.ll_cp else Advise.lp_mip in
      let r = Advise.run spec ~seed ~seconds ~trace in
      let attempted =
        Array.length r.references + List.length r.measured + List.length r.improvements
      in
      let values =
        if trace then Advise.per_layer spec r
        else ("peak_rss_mb", Report.peak_rss_mb ()) :: Advise.end_to_end r
      in
      (attempted, 0, true, values)
  | "serve-mix" ->
      let r = Serve_mix.run ~seed ~seconds in
      let values =
        if trace then Serve_mix.per_layer r
        else ("peak_rss_mb", Report.peak_rss_mb ()) :: Serve_mix.end_to_end r
      in
      ( r.Serve_mix.sent + List.length r.Serve_mix.improvements,
        r.Serve_mix.rejected + r.Serve_mix.failed,
        r.Serve_mix.failed = 0,
        values )
  | _ -> assert false

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d profile=%s ocaml=%s nproc=%d\n%!"
    !workload !seed !seconds (Bool.to_int trace) Build_info.profile Build_info.ocaml_version
    (Domain.recommended_domain_count ());
  match run_workload !workload ~seed:!seed ~seconds:!seconds ~trace with
  | attempted, failed, correct, values ->
      if trace then
        Spans.write (Printf.sprintf ".bench_out/%s-seed%d.spans.jsonl" !workload !seed);
      let units = if trace then per_layer_units else end_to_end_units in
      let r = { Report.correct; attempted; failed; metrics = metrics units values } in
      Report.print_table r;
      print_endline (Report.to_json r);
      if not r.correct then exit 1
  | exception Report.Check_failed msg ->
      prerr_endline ("perfbench: output check failed: " ^ msg);
      print_endline
        (Report.to_json { Report.correct = false; attempted = 1; failed = 1; metrics = [] });
      exit 1
