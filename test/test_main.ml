let () =
  (* PDM_SANITIZE=1 dune runtest replays the whole suite with the
     runtime honesty sanitizer cross-checking every charged round. *)
  (match Sys.getenv_opt "PDM_SANITIZE" with
   | None | Some "" | Some "0" -> ()
   | Some _ -> Pdm_sim.Pdm.set_sanitize true);
  Alcotest.run "pdm_dict"
    (List.concat [ Test_util.suite; Test_pdm.suite; Test_expander.suite;
        Test_loadbalance.suite; Test_extsort.suite; Test_basic_dict.suite;
        Test_one_probe.suite; Test_dynamic.suite;
        Test_baselines.suite; Test_workload.suite;
        Test_experiments.suite; Test_model.suite;
        Test_extensions.suite; Test_ablations.suite;
        Test_wave3.suite; Test_soak.suite; Test_fs.suite; Test_fs_model.suite; Test_properties.suite;
        Test_fault_trace.suite; Test_repair.suite; Test_engine.suite;
        Test_lint.suite; Test_sim.suite; Test_cluster.suite;
        Test_chaos.suite; Test_io.suite; Test_server.suite;
        Test_read_path.suite; Test_bit_codec.suite; Test_field_words.suite;
        Test_layout.suite ])
