let () =
  Alcotest.run "netkernel"
    [
      ("nkutil", Test_nkutil.tests);
      ("nkmon", Test_nkmon.tests);
      ("sim", Test_sim.tests);
      ("net-elements", Test_net.tests);
      ("tcp-units", Test_tcp_units.tests);
      ("tcp-integration", Test_tcp.tests);
      ("http", Test_http.tests);
      ("apps", Test_apps.tests);
      ("nqe-hugepages", Test_nqe.tests);
      ("coreengine", Test_coreengine.tests);
      ("ce-shards", Test_ce_shards.tests);
      ("stack-units", Test_stack_units.tests);
      ("determinism", Test_determinism.tests);
      ("netkernel-e2e", Test_netkernel.tests);
      ("nk-faults", Test_nk_faults.tests);
      ("extensions", Test_extensions.tests);
      ("nkctl", Test_nkctl.tests);
      ("nkfabric", Test_nkfabric.tests);
      ("nkobs", Test_nkobs.tests);
      ("tcb-roundtrip", Test_tcb_roundtrip.tests);
      ("homastack", Test_homastack.tests);
      ("nkspan", Test_nkspan.tests);
      ("nklint", Test_nkscope.site_tests);
      ("nkscope", Test_nkscope.tests);
    ]
