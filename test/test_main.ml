(* Aggregated test runner: one suite per library. *)

let () =
  Alcotest.run "offchip"
    (Test_affine.suite @ Test_lang.suite @ Test_noc.suite @ Test_cache.suite
   @ Test_dram.suite @ Test_os.suite @ Test_core.suite @ Test_sim.suite
   @ Test_workloads.suite @ Test_obs.suite @ Test_integration.suite
   @ Test_extensions.suite @ Test_fuzz.suite @ Test_misc.suite
   @ Test_sweep.suite @ Test_pipeline.suite @ Test_platform.suite
   @ Test_attr.suite @ Test_serve.suite @ Test_par.suite
   @ Test_place_search.suite @ Test_interp.suite @ Test_codegen_replay.suite)
