let () =
  Alcotest.run "xpds"
    [ T_bitv.suite; T_datatree.suite; T_xpath.suite; T_semantics.suite; T_automata.suite; T_decision.suite; T_prune.suite; T_memo.suite; T_encodings.suite; T_misc.suite; T_abstraction.suite; T_service.suite; T_golden.suite; T_json.suite; T_render.suite; T_cert.suite; T_eval.suite; T_store.suite; T_containment_service.suite ]
