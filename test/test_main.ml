(* Test runner: all suites.  `dune runtest` runs quick + slow; ALCOTEST_QUICK
   can restrict to the quick subset. *)

let () =
  Alcotest.run "srp"
    [ ("support", Test_support.suite);
      ("frontend", Test_frontend.suite);
      ("ir", Test_ir.suite);
      ("alias", Test_alias.suite);
      ("ssa", Test_ssa.suite);
      ("profile", Test_profile.suite);
      ("core", Test_core.suite);
      ("passes", Test_passes.suite);
      ("target", Test_target.suite);
      ("bundle", Test_bundle.suite);
      ("sched", Test_sched.suite);
      ("machine", Test_machine.suite);
      ("golden", Test_machine.golden_suite);
      ("random", Test_random.suite);
      ("obs", Test_obs.suite);
      ("span", Test_span.suite);
      ("stage", Test_stage.suite);
      ("serve", Test_serve.suite);
      ("e2e", Test_e2e.suite) ]
