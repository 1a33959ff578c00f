let () =
  Alcotest.run "c11tester"
    [
      ("clockvec", Test_clockvec.suite);
      ("mograph", Test_mograph.suite);
      ("rng", Test_rng.suite);
      ("par", Test_par.suite);
      ("race", Test_race.suite);
      ("fiber", Test_fiber.suite);
      ("seqarr", Test_seqarr.suite);
      ("execution", Test_exec.suite);
      ("engine", Test_engine.suite);
      ("schedule", Test_sched.suite);
      ("litmus", Test_litmus.suite);
      ("pruner", Test_pruner.suite);
      ("workloads", Test_workloads.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("cov", Test_cov.suite);
      ("determinism", Test_determinism.suite);
      ("check", Test_check.suite);
      ("stream", Test_stream.suite);
      ("fuzz", Test_fuzz.suite);
      ("corpus", Test_corpus.suite);
      ("sweep", Test_sweep.suite);
      ("lint", Test_lint.suite);
      ("svc", Test_svc.suite);
      ("readers", Test_readers.suite);
    ]
