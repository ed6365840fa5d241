(* Aggregated test entry point: every module contributes suites. *)

let () =
  Alcotest.run "lotec"
    (List.concat
       [
         Test_prng.tests;
         Test_heap.tests;
         Test_engine.tests;
         Test_engine_props.tests;
         Test_network.tests;
         Test_trace.tests;
         Test_objmodel.tests;
         Test_txn.tests;
         Test_directory.tests;
         Test_lock_model.tests;
         Test_dsm.tests;
         Test_serializability.tests;
         Test_config.tests;
         Test_recovery.tests;
         Test_runtime.tests;
         Test_runtime_edge.tests;
         Test_workload.tests;
         Test_experiments.tests;
         Test_stats.tests;
         Test_sweeps.tests;
         Test_properties.tests;
         Test_soak.tests;
         Test_edge_cases.tests;
         Test_chaos.tests;
         Test_crash_recovery.tests;
         Test_lease.tests;
         Test_method_cache.tests;
         Test_observability.tests;
         Test_batching.tests;
         Test_scale.tests;
         Test_function_shipping.tests;
         Test_escrow.tests;
         Test_partition.tests;
         Test_suite.tests;
       ])
