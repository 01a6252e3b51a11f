let () =
  Alcotest.run "cloudia"
    [
      ("prng", Test_prng.suite);
      ("obs", Test_obs.suite);
      ("stats", Test_stats.suite);
      ("graphs", Test_graphs.suite);
      ("lp", Test_lp.suite);
      ("cp", Test_cp.suite);
      ("cloudsim", Test_cloudsim.suite);
      ("netmeasure", Test_netmeasure.suite);
      ("cloudia", Test_cloudia.suite);
      ("solvers", Test_solvers.suite);
      ("delta", Test_delta.suite);
      ("lint", Test_lint.suite);
      ("analysis", Test_analysis.suite);
      ("portfolio", Test_portfolio.suite);
      ("solver", Test_solver.suite);
      ("workloads", Test_workloads.suite);
      ("extensions", Test_extensions.suite);
      ("more", Test_more.suite);
      ("failure-injection", Test_failure.suite);
      ("consistency", Test_consistency.suite);
      ("lat-matrix", Test_latmat.suite);
      ("faults", Test_faults.suite);
      ("serve", Test_serve.suite);
      ("codec", Test_codec.suite);
    ]
