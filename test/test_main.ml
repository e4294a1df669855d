let () =
  Alcotest.run "ufork"
    [
      ("util", Test_util.suite);
      ("cheri", Test_cheri.suite);
      ("mem", Test_mem.suite);
      ("sim", Test_sim.suite);
      ("schedule", Test_schedule.suite);
      ("sas", Test_sas.suite);
      ("core", Test_core.suite);
      ("baselines", Test_baselines.suite);
      ("apps", Test_apps.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_props.suite);
      ("analysis", Test_analysis.suite);
      ("race", Test_race.suite);
      ("lockdep", Test_lockdep.suite);
      ("causal", Test_causal.suite);
      ("lint", Test_lint.suite);
      ("profile", Test_profile.suite);
      ("integration", Test_integration.suite);
      ("cli", Test_cli.suite);
    ]
