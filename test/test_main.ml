let () =
  Alcotest.run "repro"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("loadvec", Test_loadvec.suite);
      ("markov", Test_markov.suite);
      ("empirical", Test_empirical.suite);
      ("engine", Test_engine.suite);
      ("obs", Test_obs.suite);
      ("coupling", Test_coupling.suite);
      ("core.rules", Test_core_rules.suite);
      ("core.process", Test_core_process.suite);
      ("core.bins", Test_core_bins.suite);
      ("edgeorient", Test_edgeorient.suite);
      ("fluid", Test_fluid.suite);
      ("theory", Test_theory.suite);
      ("extensions", Test_extensions.suite);
      ("related", Test_related.suite);
      ("exact-coupling", Test_exact_coupling.suite);
      ("integration", Test_integration.suite);
      ("properties", Test_properties.suite);
      ("errors", Test_errors.suite);
      ("parallel", Test_parallel.suite);
      ("removal+adap-fluid", Test_fluid_adap.suite);
      ("path-metric", Test_path_metric.suite);
      ("experiment", Test_experiment.suite);
      ("rbb", Test_rbb.suite);
      ("validate", Test_validate.suite);
      ("serve", Test_serve.suite);
    ]
