let () =
  Alcotest.run "spandex"
    [
      ("util", Test_util.tests);
      ("proto", Test_proto.tests);
      ("mem", Test_mem.tests);
      ("sim", Test_sim.tests);
      ("trace", Test_trace.tests);
      ("wheel", Test_wheel.tests);
      ("tu", Test_tu.tests);
      ("llc", Test_llc.tests);
      ("devices", Test_devices.tests);
      ("dir", Test_dir.tests);
      ("devices2", Test_devices2.tests);
      ("workloads", Test_workloads.tests);
      ("program", Test_program.tests);
      ("system", Test_system.tests);
      ("smoke", Test_smoke.tests);
      ("properties", Test_properties.tests);
      ("backing", Test_backing.tests);
      ("extensions", Test_extensions.tests);
      ("faults", Test_faults.tests);
      ("sweep", Test_sweep.tests);
      ("obs", Test_obs.tests);
      ("chassis", Test_chassis.tests);
      ("random", Test_random.tests);
      ("check", Test_check.tests);
    ]
