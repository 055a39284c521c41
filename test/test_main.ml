let () =
  Alcotest.run "repro"
    (Test_sim.suite @ Test_join.suite @ Test_net.suite @ Test_store.suite @ Test_lockmgr.suite
   @ Test_action.suite @ Test_replica.suite @ Test_naming.suite
   @ Test_sharding.suite @ Test_regressions.suite @ Test_workload.suite
   @ Test_extensions.suite
   @ Test_fortification.suite @ Test_chaos.suite
   @ Test_optimistic.suite @ Test_groupcommit.suite @ Test_properties.suite
   @ Test_brownout.suite @ Test_autonomic.suite)
