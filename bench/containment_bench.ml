(* Containment-verb benchmark and §4.1 serving smoke.

   Full mode: serve a corpus of containment pairs and doctype-
   constrained formulas through the service verbs and gate on
   (a) verdict agreement with the direct library calls
   ({!Xpds.Containment.contained}, {!Xpds.Sat.decide_under_doctype}
   under the same options), (b) every served [Fails] counterexample
   replaying through {!Xpds.Semantics}, and (c) a warm re-serve
   answering entirely from cache. Emits BENCH_containment.json.

   [run ~quick:true] is the CI smoke: the three new wire kinds
   end-to-end through [handle_line] (holds / fails-with-replayable-
   counterexample / equiv / doctype sat and unsat), kind-tagged cache
   separation (a contains result never aliases a sat result for the
   same canonical formula), and the structured-error pins (closed
   schemas, invalid doctypes, the five-kind unknown-kind message).
   Returns 0 on success, 1 on any violated expectation.

   Run with: xpds bench containment [--quick]
         or: dune exec bench/main.exe -- containment *)

module Service = Xpds.Service
module Containment = Xpds.Containment
module Sat = Xpds.Sat
module Doctype = Xpds.Doctype
module Semantics = Xpds.Semantics
module Data_tree = Xpds.Data_tree
module Label = Xpds.Label
module Build = Xpds.Build
module Parser = Xpds.Parser
module Json = Xpds.Json

let f s = Xpds.Ast.as_node (Parser.formula_of_string_exn s)

let time fn =
  let t0 = Unix.gettimeofday () in
  let r = fn () in
  (r, Unix.gettimeofday () -. t0)

let answer_name = function
  | Containment.Holds -> "holds"
  | Containment.Holds_bounded _ -> "holds_bounded"
  | Containment.Fails _ -> "fails"
  | Containment.Unknown _ -> "unknown"

(* The direct-call twin of the service's solver configuration, so the
   agreement gate compares equal searches. *)
let options_of (sc : Service.Config.solver) =
  {
    Sat.Options.default with
    Sat.Options.width = sc.width;
    t0 = sc.t0;
    dup_cap = sc.dup_cap;
    merge_budget = sc.merge_budget;
    max_states = sc.max_states;
    max_transitions = sc.max_transitions;
  }

(* A counterexample to ϕ ⊑ ψ is a tree with a node satisfying ϕ ∧ ¬ψ. *)
let counterexample_ok phi psi w =
  Semantics.check_somewhere w (Xpds.Ast.And (phi, Build.not_ psi))

let doctype_labels rules =
  List.map Label.of_string (Doctype.rule_labels rules)

(* --- the corpora --- *)

let contains_pairs =
  [ ("refl", "<down[a & b]>", "<down[a & b]>", "holds");
    ("conj_weaken", "<down[a & b]>", "<down[a]>", "holds");
    ("conj_strengthen", "<down[a]>", "<down[a & b]>", "fails");
    ("label_disjoint", "<down[a]>", "<down[b]>", "fails");
    ("nested_weaken", "<down[a & <down[b & c]>]>", "<down[<down[b]>]>",
     "holds");
    ("nested_strengthen", "<down[<down[b]>]>", "<down[a & <down[b]>]>",
     "fails");
    ("data_refl", "down[a] != down[a]", "down[a] != down[a]", "holds");
    ("data_to_label", "down[a] != down[a]", "<down[a]>", "holds");
    ("label_to_data", "<down[a]>", "down[a] != down[a]", "fails")
  ]

let doctype_cases =
  (* (name, formula, rules, expected verdict class) *)
  [ ("free_sat", "<down[a]>", [], `Sat);
    ( "needs_child_sat",
      "<down[a]>",
      [ { Doctype.parent = "a"; at_least = [ (1, "b") ]; forbidden = [] } ],
      `Sat );
    ( "forbidden_unsat",
      "<down[a & <down[c]>]>",
      [ { Doctype.parent = "a"; at_least = []; forbidden = [ "c" ] } ],
      `Unsat );
    ( "chain_sat",
      "<down[a & <down[b]>]>",
      [ { Doctype.parent = "a"; at_least = [ (2, "b") ]; forbidden = [] } ],
      `Sat )
  ]

(* --- full mode --- *)

let full ~out () =
  let sc = Service.Config.default_solver in
  let options = options_of sc in
  Format.printf "containment bench: %d pairs, %d doctype cases@."
    (List.length contains_pairs)
    (List.length doctype_cases);

  (* Direct library calls: the ground truth of the agreement gate. *)
  let direct, direct_s =
    time (fun () ->
        List.map
          (fun (name, phi, psi, _) ->
            (name, Containment.contained ~options (f phi) (f psi)))
          contains_pairs)
  in
  Format.printf "  direct:      %.2f s@." direct_s;

  (* Served cold, then warm: same service, so the warm pass must be
     answered entirely by the memory tier. *)
  let svc = Service.create Service.Config.default in
  let serve () =
    List.map
      (fun (name, phi, psi, _) ->
        ( name,
          Corpus.solve svc
            { Xpds.Request.id = name;
              timeout_ms = None;
              body = Contains { phi = f phi; psi = f psi }
            } ))
      contains_pairs
  in
  let cold, cold_s = time serve in
  Format.printf "  served cold: %.2f s@." cold_s;
  let warm, warm_s = time serve in
  Format.printf "  served warm: %.4f s@." warm_s;

  let agree =
    List.for_all2
      (fun (_, direct) (_, served) ->
        answer_name direct = answer_name (Service.contains_answer served))
      direct cold
  in
  let expected_ok =
    List.for_all2
      (fun (_, _, _, expect) (_, served) ->
        match (expect, answer_name (Service.contains_answer served)) with
        (* a width-bounded saturation answers the honest
           [holds_bounded]; both classes confirm the containment *)
        | "holds", ("holds" | "holds_bounded") -> true
        | e, a -> e = a)
      contains_pairs cold
  in
  let counterexamples_ok =
    List.for_all2
      (fun (_, phi, psi, _) (_, served) ->
        match Service.contains_answer served with
        | Containment.Fails w -> (
          counterexample_ok (f phi) (f psi) w
          && (* the wire rendering round-trips *)
          match Data_tree.of_string (Data_tree.to_compact_string w) with
          | Ok w' -> w' = w
          | Error _ -> false)
        | _ -> true)
      contains_pairs cold
  in
  let warm_cached =
    List.for_all (fun (_, r) -> r.Service.cached) warm
  in
  Format.printf
    "  agreement %b, expected %b, counterexamples %b, warm cached %b@."
    agree expected_ok counterexamples_ok warm_cached;

  (* Doctype-constrained satisfiability: served verb vs direct call,
     witnesses conforming. *)
  let doctype_results =
    List.map
      (fun (name, phi, rules, expect) ->
        let served =
          Corpus.solve svc
            { Xpds.Request.id = name;
              timeout_ms = None;
              body = Doctype { formula = f phi; doctype = rules }
            }
        in
        let direct = Sat.decide_under_doctype ~options ~doctype:rules (f phi) in
        let v r =
          Service.verdict_name r.Sat.verdict
        in
        let agree = v served.Service.report = v direct in
        let class_ok =
          match (expect, v served.Service.report) with
          | `Sat, "sat" -> true
          | `Unsat, ("unsat" | "unsat_bounded") -> true
          | _ -> false
        in
        let witness_ok =
          match served.Service.report.Sat.verdict with
          | Sat.Sat w ->
            Semantics.check_somewhere w (f phi)
            && Doctype.conforms ~labels:(doctype_labels rules) rules w
          | _ -> true
        in
        (name, agree, class_ok, witness_ok))
      doctype_cases
  in
  let doctype_ok =
    List.for_all (fun (_, a, c, w) -> a && c && w) doctype_results
  in
  Format.printf "  doctype agreement %b@." doctype_ok;

  let ok =
    Report.write ~out ~bench:"containment" ~mode:"full"
      ~gates:
        [ ("agreement", agree);
          ("expected_answers", expected_ok);
          ("counterexamples_replay", counterexamples_ok);
          ("warm_all_cached", warm_cached);
          ("doctype_agreement", doctype_ok)
        ]
      [ ("pairs", Json.Num (float_of_int (List.length contains_pairs)));
        ( "doctype_cases",
          Json.Num (float_of_int (List.length doctype_cases)) );
        ("direct_s", Json.Num direct_s);
        ("served_cold_s", Json.Num cold_s);
        ("served_warm_s", Json.Num warm_s);
        ( "warm_speedup",
          Json.Num (if warm_s > 0. then cold_s /. warm_s else 0.) );
        ( "answers",
          Json.Obj
            (List.map
               (fun (name, r) ->
                 (name, Json.Str (answer_name (Service.contains_answer r))))
               cold) )
      ]
  in
  if ok then 0 else 1

(* --- CI smoke mode --- *)

let smoke ~out () =
  let checks = ref [] in
  let check name ok =
    Format.printf "  %-38s %s@." name (if ok then "ok" else "FAIL");
    checks := (name, ok) :: !checks
  in
  let svc = Service.create Service.Config.default in
  let serve line = Service.handle_line svc line in
  let field name line =
    match Json.parse line with
    | Ok v -> Json.member name v
    | Error _ -> None
  in
  let str_field name line =
    Option.bind (field name line) Json.to_str
  in

  (* 1. contains holds, end-to-end over the wire. *)
  let holds =
    serve {|{"kind":"contains","id":"c1","phi":"<down[a & b]>","psi":"<down[a]>"}|}
  in
  check "contains_holds"
    (match str_field "answer" holds with
    | Some ("holds" | "holds_bounded") -> true
    | _ -> false);
  check "contains_kind_tagged" (str_field "kind" holds = Some "contains");

  (* 2. contains fails: the counterexample is parseable, verified, and
     replays through the semantics. *)
  let phi = f "<down[a]>" and psi = f "<down[a & b]>" in
  let fails =
    serve {|{"kind":"contains","id":"c2","phi":"<down[a]>","psi":"<down[a & b]>"}|}
  in
  check "contains_fails" (str_field "answer" fails = Some "fails");
  check "counterexample_verified"
    (field "verified" fails = Some (Json.Bool true));
  let replayed =
    match str_field "counterexample" fails with
    | None -> false
    | Some text -> (
      match Data_tree.of_string text with
      | Error _ -> false
      | Ok w -> counterexample_ok phi psi w)
  in
  check "counterexample_replays" replayed;

  (* 3. equiv: a syntactic variant is equivalent; a strict weakening is
     not, and the failing direction carries the counterexample. *)
  let eq =
    serve {|{"kind":"equiv","id":"e1","phi":"<down[a & b]>","psi":"<down[b & a]>"}|}
  in
  check "equiv_true" (field "equivalent" eq = Some (Json.Bool true));
  let neq =
    serve {|{"kind":"equiv","id":"e2","phi":"<down[a & b]>","psi":"<down[a]>"}|}
  in
  check "equiv_false" (field "equivalent" neq = Some (Json.Bool false));
  check "equiv_backward_fails"
    (match field "backward" neq with
    | Some (Json.Obj _ as dir) -> (
      match Json.member "answer" dir with
      | Some (Json.Str "fails") -> Json.member "counterexample" dir <> None
      | _ -> false)
    | _ -> false);

  (* 4. sat_under_doctype: a conforming witness, and an unsat under a
     forbidding rule. *)
  let dt_sat =
    serve
      {|{"kind":"sat_under_doctype","id":"d1","formula":"<down[a]>","doctype":[{"parent":"a","at_least":[[1,"b"]]}]}|}
  in
  check "doctype_sat" (str_field "verdict" dt_sat = Some "sat");
  check "doctype_witness_conforms"
    (match str_field "witness" dt_sat with
    | None -> false
    | Some text -> (
      match Data_tree.of_string text with
      | Error _ -> false
      | Ok w ->
        let rules =
          [ { Doctype.parent = "a"; at_least = [ (1, "b") ]; forbidden = [] } ]
        in
        Semantics.check_somewhere w (f "<down[a]>")
        && Doctype.conforms ~labels:(doctype_labels rules) rules w));
  let dt_unsat =
    serve
      {|{"kind":"sat_under_doctype","id":"d2","formula":"<down[a & <down[c]>]>","doctype":[{"parent":"a","forbidden":["c"]}]}|}
  in
  check "doctype_unsat"
    (match str_field "verdict" dt_unsat with
    | Some ("unsat" | "unsat_bounded") -> true
    | _ -> false);

  (* 5. Kind-tagged cache keys: pre-solving ϕ∧¬ψ as a plain sat request
     must not let the contains verb answer from the sat entry. *)
  let sep_svc = Service.create Service.Config.default in
  let query = Containment.query phi psi in
  let _sat =
    Corpus.solve sep_svc
      (Corpus.sat_request "s" query)
  in
  let ct =
    Corpus.solve sep_svc
      { Xpds.Request.id = "c"; timeout_ms = None; body = Contains { phi; psi } }
  in
  check "kind_separated_no_alias" (not ct.Service.cached);
  check "kind_separated_two_entries" (Service.cache_length sep_svc = 2);

  (* 6. Warm path: the same contains line re-served is a memory hit. *)
  let warm =
    serve {|{"kind":"contains","id":"c2w","phi":"<down[a]>","psi":"<down[a & b]>"}|}
  in
  check "contains_warm_cached" (field "cached" warm = Some (Json.Bool true));

  (* 7. Structured errors: closed schemas, invalid doctypes (never a
     crash report), and the five-kind unknown-kind message. *)
  let is_error line = field "error" line <> None in
  let error_text line = Option.value ~default:"" (str_field "error" line) in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let bogus =
    serve {|{"kind":"contains","phi":"<down[a]>","psi":"<down[a]>","bogus":1}|}
  in
  check "contains_schema_closed"
    (is_error bogus && contains_sub (error_text bogus) "bogus");
  let bad_rule_field =
    serve
      {|{"kind":"sat_under_doctype","formula":"<down[a]>","doctype":[{"parent":"a","frob":1}]}|}
  in
  check "doctype_rule_schema_closed"
    (is_error bad_rule_field && contains_sub (error_text bad_rule_field) "frob");
  let bad_count =
    serve
      {|{"kind":"sat_under_doctype","formula":"<down[a]>","doctype":[{"parent":"a","at_least":[[0,"b"]]}]}|}
  in
  check "invalid_doctype_structured_error"
    (is_error bad_count
    && not (contains_sub (error_text bad_count) "crash"));
  let unknown_kind = serve {|{"kind":"frob","formula":"<down[a]>"}|} in
  check "unknown_kind_lists_all_verbs"
    (is_error unknown_kind
    && contains_sub (error_text unknown_kind) "sat_under_doctype"
    && contains_sub (error_text unknown_kind) "contains"
    && contains_sub (error_text unknown_kind) "equiv");

  let results = List.rev !checks in
  let failed = List.filter (fun (_, ok) -> not ok) results in
  Format.printf "  %d/%d ok@."
    (List.length results - List.length failed)
    (List.length results);
  let ok =
    Report.write ~out ~bench:"containment" ~mode:"quick"
      ~gates:[ ("smoke_checks", failed = []) ]
      [ ("checks", Json.Num (float_of_int (List.length results)));
        ("failed", Json.Num (float_of_int (List.length failed)));
        ( "results",
          Json.Obj
            (List.map (fun (name, ok) -> (name, Json.Bool ok)) results) )
      ]
  in
  if ok then 0 else 1

let run ?(quick = false) ?(out = "BENCH_containment.json") () =
  Format.printf "containment bench%s:@." (if quick then " (quick)" else "");
  if quick then smoke ~out () else full ~out ()
