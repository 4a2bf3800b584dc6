let () =
  Alcotest.run "platinum"
    [
      ("sim", Test_sim.suite);
      ("machine", Test_machine.suite);
      ("phys", Test_phys.suite);
      ("core", Test_core.suite);
      ("flat", Test_flat.suite);
      ("check", Test_check.suite);
      ("ast_lint", Test_ast_lint.suite);
      ("vm", Test_vm.suite);
      ("kernel", Test_kernel.suite);
      ("fastpath", Test_fastpath.suite);
      ("slices", Test_slices.suite);
      ("cache", Test_cache.suite);
      ("analysis", Test_analysis.suite);
      ("micro", Test_micro.suite);
      ("stats", Test_stats.suite);
      ("workload", Test_workload.suite);
      ("integration", Test_integration.suite);
      ("golden", Test_golden.suite);
      ("soak", Test_soak.suite);
      ("par", Test_parsweep.suite);
      ("parshard", Test_parshard.suite);
      ("extensions", Test_extensions.suite);
      ("units", Test_units.suite);
      ("serve", Test_serve.suite);
    ]
