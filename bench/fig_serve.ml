(* Serving daemon: cold-vs-warm advise latency and sustained jobs/sec.

   A tenant that re-submits the same measurement matrix must be answered
   from the fingerprint-keyed caches: the first (cold) solve pays the
   full anneal, the repeat (warm) is a memo hit. This section starts a
   real daemon on a Unix socket, drives it through the client library,
   and enforces the acceptance bar: warm advise latency at least 3x lower
   than cold on a repeated 64-node instance. It also measures mixed-
   workload throughput across two client threads, and checks the daemon
   survives a client that disconnects mid-job. *)

let socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cloudia-bench-%d.sock" (Unix.getpid ()))

let mk_job ~id ~seed ~moves ~graph ~costs =
  {
    Serve.Protocol.id;
    tenant = "bench";
    seed;
    solver = Serve.Protocol.Anneal;
    objective = Cloudia.Cost.Longest_link;
    budget = 10.0;
    deadline = Some 60.0;
    max_moves = Some moves;
    clusters = None;
    graph;
    costs;
  }

(* (cost, latency_ms, cached, warm) of a [Result]; anything else fails
   the bench. *)
let expect_result = function
  | Serve.Protocol.Result { r_cost; r_latency_ms; r_cached; r_warm; _ } ->
      (r_cost, r_latency_ms, r_cached, r_warm)
  | Serve.Protocol.Rejected { reason; _ } -> failwith ("fig-serve: rejected: " ^ reason)
  | Serve.Protocol.Failed { message; _ } -> failwith ("fig-serve: failed: " ^ message)
  | _ -> failwith "fig-serve: unexpected reply"

let run () =
  Util.section "Serve" "advising daemon: fingerprint caches and throughput";
  let sock = socket_path () in
  let per_thread = Util.trials ~floor:9 30 in
  (* The cache holds the run's whole working set, so the disconnect check
     at the end still finds the first 64-node job's memo: two mesh jobs
     (seeds 7 and 8), [per_thread / 3] seeds on each of the three
     sustained-workload matrices, and the orphaned job. *)
  let cache_capacity = 2 + (3 * (per_thread / 3)) + 1 in
  let config =
    { (Serve.Server.default_config ~socket_path:sock) with domains = 2; cache_capacity }
  in
  let server = Serve.Server.start config in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
  (* The paper's behavioral-simulation scale: 8x8 mesh, 20 % over-allocation. *)
  let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8 in
  let env64 = Util.env_of ~seed:701 Util.ec2 ~count:(64 * 12 / 10) in
  let costs64 = Lat_matrix.of_arrays (Cloudsim.Env.mean_matrix env64) in
  let moves = Util.trials ~floor:2_000 30_000 in

  Util.subsection "cold vs warm advise latency (64-node mesh, repeated)";
  let c = Serve.Client.connect sock in
  let cold_cost, cold_ms, cold_cached, _ =
    expect_result
      (Serve.Client.advise c (mk_job ~id:"cold" ~seed:7 ~moves ~graph:mesh ~costs:costs64))
  in
  if cold_cached then failwith "fig-serve: first submission reported as cached";
  let warm_cost, warm_ms, warm_cached, _ =
    expect_result
      (Serve.Client.advise c (mk_job ~id:"warm" ~seed:7 ~moves ~graph:mesh ~costs:costs64))
  in
  if not warm_cached then failwith "fig-serve: identical re-submission missed the memo";
  if warm_cost <> cold_cost then failwith "fig-serve: memo returned a different cost";
  (* Same matrix, new seed: a fresh solve, but seeded from the cached
     incumbent of the matching fingerprint. *)
  let _, reseed_ms, reseed_cached, reseed_warm =
    expect_result
      (Serve.Client.advise c (mk_job ~id:"reseed" ~seed:8 ~moves ~graph:mesh ~costs:costs64))
  in
  if reseed_cached then failwith "fig-serve: different seed must not hit the memo";
  if not reseed_warm then failwith "fig-serve: known fingerprint did not warm-start";
  let speedup = cold_ms /. Float.max 1e-6 warm_ms in
  Printf.printf "  %-24s %12s %10s %8s\n" "request" "latency" "cached" "warm";
  let row name ms cached warm =
    Printf.printf "  %-24s %9.3f ms %10s %8s\n" name ms
      (if cached then "yes" else "no")
      (if warm then "yes" else "no")
  in
  row "cold (first solve)" cold_ms false false;
  row "warm (memo hit)" warm_ms true false;
  row "re-seeded (warm start)" reseed_ms false true;
  Printf.printf "  warm speedup: %.0fx\n" speedup;
  Util.metric "fig_serve.cold_ms" cold_ms;
  Util.metric "fig_serve.warm_ms" warm_ms;
  Util.metric "fig_serve.warm_speedup" speedup;

  Util.subsection "sustained mixed workload (2 client threads)";
  (* Three tenants' matrices at 16 nodes; each (matrix, seed) job is
     submitted by both threads, so half the fleet's solves are answered
     across tenants from the memo. *)
  let ring = Graphs.Templates.ring ~n:16 in
  let matrices =
    List.map
      (fun seed ->
        Lat_matrix.of_arrays
          (Cloudsim.Env.mean_matrix (Util.env_of ~seed Util.ec2 ~count:20)))
      [ 711; 712; 713 ]
  in
  let small_moves = Util.trials ~floor:500 5_000 in
  let worker tid () =
    let c = Serve.Client.connect sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    List.iteri
      (fun i costs ->
        for s = 0 to (per_thread / 3) - 1 do
          ignore
            (expect_result
               (Serve.Client.advise c
                  (mk_job
                     ~id:(Printf.sprintf "t%d-m%d-s%d" tid i s)
                     ~seed:s ~moves:small_moves ~graph:ring ~costs)))
        done)
      matrices
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.map (fun tid -> Thread.create (worker tid) ()) [ 0; 1 ] in
  List.iter Thread.join threads;
  let elapsed = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let total = 2 * (per_thread / 3) * 3 in
  let jps = float_of_int total /. elapsed in
  Printf.printf "  %d jobs in %.2f s: %.0f jobs/sec\n" total elapsed jps;
  Util.metric "fig_serve.jobs_per_sec" jps;

  Util.subsection "client disconnect mid-job";
  let d = Serve.Client.connect sock in
  Serve.Protocol.send_request (Serve.Client.raw_fd d)
    (Serve.Protocol.Advise (mk_job ~id:"orphan" ~seed:33 ~moves ~graph:mesh ~costs:costs64));
  Serve.Client.close d;
  (* The daemon must absorb the EPIPE and keep answering. *)
  Serve.Client.ping c;
  let _, _, after_cached, _ =
    expect_result
      (Serve.Client.advise c (mk_job ~id:"after" ~seed:7 ~moves ~graph:mesh ~costs:costs64))
  in
  if not after_cached then failwith "fig-serve: cache lost after client disconnect";
  Printf.printf "  daemon alive after mid-job disconnect: yes\n";
  Serve.Client.close c;

  Printf.printf "\n  warm advise vs the >=3x claim: %.0fx — %s\n" speedup
    (if speedup >= 3.0 then "PASS" else "FAIL");
  if speedup < 3.0 then
    failwith
      (Printf.sprintf "fig-serve: warm/cold speedup %.1fx below the 3x acceptance bar"
         speedup)
