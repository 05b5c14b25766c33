let () =
  Alcotest.run "amdrel"
    [
      ("util", Test_util.suite);
      ("spice", Test_spice.suite);
      ("netlist", Test_netlist.suite);
      ("synth", Test_synth.suite);
      ("techmap", Test_techmap.suite);
      ("backend", Test_backend.suite);
      ("route", Test_route.suite);
      ("segments", Test_segments.suite);
      ("tools", Test_tools.suite);
      ("properties", Test_properties.suite);
      ("sta", Test_sta.suite);
      ("golden", Test_golden.suite);
      ("obs", Test_obs.suite);
      ("events", Test_events.suite);
      ("ledger", Test_ledger.suite);
      ("cache", Test_cache.suite);
      ("service", Test_service.suite);
      ("flow", Test_flow.suite);
      ("cli", Test_cli.suite);
    ]
