(* The PSpace lower bound, executed end to end (Prop 8 / Appendix E):
   QBF validity decided three ways — by the direct recursive solver, by
   satisfiability of the XPath(↓∗) encoding, and by inspecting the
   witness tree, whose branches spell out the winning valuations.

   Run with:  dune exec examples/qbf_reduction.exe *)

let show name q =
  Format.printf "--- %s: %a@." name Xpds.Qbf.pp q;
  let truth = Xpds.Qbf.valid q in
  Format.printf "direct solver: %s@." (if truth then "valid" else "invalid");
  let phi = Xpds.Qbf_encoding.encode q in
  Format.printf "encoding: %d AST nodes in %s (data-free)@."
    (Xpds.Measure.size_node phi)
    (Xpds.Fragment.name (Xpds.Fragment.classify phi));
  assert (Xpds.Qbf_encoding.is_data_free phi);
  let report =
    Xpds.Sat.decide
      ~options:
        Xpds.Sat.Options.(
          default |> with_max_states 100_000 |> with_max_transitions 2_000_000)
      phi
    |> Xpds.Sat.minimize phi
  in
  (match report.Xpds.Sat.verdict with
  | Xpds.Sat.Sat w ->
    Format.printf "encoding SAT; minimized strategy tree:@.  %a@."
      Xpds.Data_tree.pp w;
    assert truth
  | Xpds.Sat.Unsat | Xpds.Sat.Unsat_bounded _ ->
    Format.printf "encoding UNSAT@.";
    assert (not truth)
  | Xpds.Sat.Unknown why -> Format.printf "gave up (%s)@." why);
  Format.printf "@."

let () =
  show "forall-exists (valid)"
    { Xpds.Qbf.prefix = [ Xpds.Qbf.Forall; Xpds.Qbf.Exists ];
      clauses = [ [ 1; 2 ]; [ -1; -2 ] ]
    };
  show "exists-forall (invalid)"
    { Xpds.Qbf.prefix = [ Xpds.Qbf.Exists; Xpds.Qbf.Forall ];
      clauses = [ [ 1; 2 ]; [ -1; -2 ] ]
    };
  show "one variable, contradictory"
    { Xpds.Qbf.prefix = [ Xpds.Qbf.Exists ]; clauses = [ [ 1 ]; [ -1 ] ] };
  (* Parse the DIMACS-ish syntax used by the CLI. *)
  match Xpds.Qbf.of_string "AE: 1 2 0 -2 -1 0" with
  | Ok q -> show "parsed instance" q
  | Error e -> prerr_endline e
