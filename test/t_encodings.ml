(* Tests for the lower-bound encodings, the XML/attrXPath front end and
   document types. *)

open Xpds_encodings
module Ast = Xpds_xpath.Ast
module Semantics = Xpds_xpath.Semantics
module Fragment = Xpds_xpath.Fragment
module Data_tree = Xpds_datatree.Data_tree
module Xml_doc = Xpds_datatree.Xml_doc
module Label = Xpds_datatree.Label
module Doctype = Xpds_automata.Doctype
module Bip_run = Xpds_automata.Bip_run
module Sat = Xpds_decision.Sat

(* --- tiling game solver --- *)

let test_tiling_game_examples () =
  Alcotest.(check bool) "example_win" true
    (Tiling_game.eloise_wins (Tiling_game.example_win ()));
  Alcotest.(check bool) "example_lose" false
    (Tiling_game.eloise_wins (Tiling_game.example_lose ()))

let test_tiling_game_stuck () =
  (* Abelard's column has no legal tile: the game gets stuck before the
     winning tile can ever be placed — Abelard wins. *)
  let inst =
    {
      Tiling_game.n = 2;
      s = 2;
      initial = [| 1; 1 |];
      h = [ (1, 1); (1, 2) ];
      v = [ (1, 1) ] (* only tile 1 can ever be placed; 2 never *);
    }
  in
  Alcotest.(check bool) "stuck game lost" false (Tiling_game.eloise_wins inst)

let test_tiling_game_forced_win () =
  (* Winning tile 2, placeable immediately by Eloise. *)
  let inst =
    {
      Tiling_game.n = 2;
      s = 2;
      initial = [| 1; 1 |];
      h = [ (1, 1); (2, 1); (1, 2) ];
      v = [ (1, 1); (1, 2) ];
    }
  in
  Alcotest.(check bool) "eloise places winning tile" true
    (Tiling_game.eloise_wins inst)

let test_tiling_validate () =
  let bad = { (Tiling_game.example_win ()) with Tiling_game.n = 3 } in
  match Tiling_game.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "odd corridor width must be rejected"

(* --- tiling encoding --- *)

let test_tiling_encoding_fragment () =
  let phi = Tiling.encode (Tiling_game.example_win ()) in
  Alcotest.(check bool) "uses neither child nor star" true
    (Tiling.in_desc_fragment phi);
  Alcotest.(check bool) "classified in XPath(desc,=)" true
    (match Fragment.classify phi with
    | Fragment.XPath_desc_data | Fragment.XPath_desc_data_epsfree -> true
    | _ -> false)

let test_tiling_encoding_polynomial () =
  (* Size grows polynomially in (n, s): check a crude cubic bound. *)
  List.iter
    (fun (n, s) ->
      let inst =
        {
          Tiling_game.n;
          s;
          initial = Array.init n (fun i -> 1 + (i mod s));
          h =
            List.concat_map
              (fun a -> List.init s (fun b -> (a, b + 1)))
              (List.init s (fun a -> a + 1));
          v =
            List.concat_map
              (fun a -> List.init s (fun b -> (a, b + 1)))
              (List.init s (fun a -> a + 1));
        }
      in
      let size = Xpds_xpath.Measure.size_node (Tiling.encode inst) in
      let bound = 2000 * (n + s) * (n + s) * (n + s) in
      Alcotest.(check bool)
        (Printf.sprintf "size %d within cubic bound for n=%d s=%d" size n s)
        true (size < bound))
    [ (2, 2); (2, 3); (4, 3); (6, 4) ]

let test_tiling_encoding_no_false_sat () =
  (* For the losing instance the encoding must not be satisfiable: the
     solver may exhaust its (small) budget — that's fine — but must
     never return SAT. *)
  let phi = Tiling.encode (Tiling_game.example_lose ()) in
  match
    (Sat.decide
       ~options:
         Sat.Options.(
           default |> with_verify true |> with_max_states 150
           |> with_max_transitions 1_000)
       phi)
      .Sat.verdict
  with
  | Sat.Sat _ -> Alcotest.fail "losing instance encoded as SAT"
  | _ -> ()

let test_tiling_strategy_witness () =
  (* The feasible direction of Theorem 5: build the coding tree of the
     winning strategy and replay it through the reference semantics. *)
  let inst = Tiling_game.example_win () in
  (match Tiling.strategy_witness inst with
  | Some w ->
    Alcotest.(check bool) "witness satisfies the encoding" true
      (Semantics.check w (Tiling.encode inst))
  | None -> Alcotest.fail "Eloise wins: a witness must exist");
  match Tiling.strategy_witness (Tiling_game.example_lose ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "Abelard wins: no witness"

let test_tiling_strategy_witness_longer () =
  (* An instance where the win needs actual play: tiles 1/2 alternate,
     the winning tile 3 needs a 2 below it. *)
  let inst =
    {
      Tiling_game.n = 2;
      s = 3;
      initial = [| 1; 2 |];
      h = [ (1, 2); (2, 1); (1, 3); (2, 3); (1, 1); (2, 2) ];
      v = [ (1, 1); (2, 2); (1, 2); (2, 1); (2, 3) ];
    }
  in
  if Tiling_game.eloise_wins inst then
    match Tiling.strategy_witness inst with
    | Some w ->
      Alcotest.(check bool) "longer witness satisfies the encoding" true
        (Semantics.check w (Tiling.encode inst))
    | None -> Alcotest.fail "winner without witness"
  else ()

(* --- QBF --- *)

let test_qbf_solver () =
  let open Qbf in
  let v prefix clauses = Qbf.valid { Qbf.prefix; clauses } in
  Alcotest.(check bool) "E1.(1)" true (v [ Exists ] [ [ 1 ] ]);
  Alcotest.(check bool) "A1.(1)" false (v [ Forall ] [ [ 1 ] ]);
  Alcotest.(check bool) "E1.(1)&(-1)" false (v [ Exists ] [ [ 1 ]; [ -1 ] ]);
  Alcotest.(check bool) "A1E2.(1|2)&(-1|-2)" true
    (v [ Forall; Exists ] [ [ 1; 2 ]; [ -1; -2 ] ]);
  Alcotest.(check bool) "E1A2.(1|2)" true (v [ Exists; Forall ] [ [ 1; 2 ] ]);
  Alcotest.(check bool) "E1A2.(1&2...)" false
    (v [ Exists; Forall ] [ [ 1 ]; [ 2 ] ])

let test_qbf_parser () =
  (match Qbf.of_string "AE: 1 2 0 -1 -2 0" with
  | Ok q ->
    Alcotest.(check int) "vars" 2 (Qbf.n_vars q);
    Alcotest.(check int) "clauses" 2 (List.length q.Qbf.clauses);
    (* ∀x1 ∃x2. (x1∨x2) ∧ (¬x1∨¬x2): pick x2 = ¬x1. *)
    Alcotest.(check bool) "AE valid" true (Qbf.valid q)
  | Error e -> Alcotest.failf "parse: %s" e);
  (* With the quantifiers swapped the same matrix is invalid. *)
  match Qbf.of_string "EA: 1 2 0 -1 -2 0" with
  | Ok q -> Alcotest.(check bool) "EA invalid" false (Qbf.valid q)
  | Error e -> Alcotest.failf "parse: %s" e

let test_qbf_encoding_fragment () =
  let q = { Qbf.prefix = [ Qbf.Exists; Qbf.Forall ]; clauses = [ [ 1; 2 ] ] } in
  let phi = Qbf_encoding.encode q in
  Alcotest.(check bool) "data-free descendant fragment" true
    (Qbf_encoding.is_data_free phi);
  Alcotest.(check bool) "classified XPath(desc)" true
    (Fragment.classify phi = Fragment.XPath_desc)

let qbf_instances =
  [ { Qbf.prefix = [ Qbf.Exists ]; clauses = [ [ 1 ] ] };
    { Qbf.prefix = [ Qbf.Exists ]; clauses = [ [ 1 ]; [ -1 ] ] };
    { Qbf.prefix = [ Qbf.Forall ]; clauses = [ [ 1 ] ] };
    { Qbf.prefix = [ Qbf.Exists; Qbf.Forall ]; clauses = [ [ 1; 2 ] ] };
    { Qbf.prefix = [ Qbf.Exists; Qbf.Forall ]; clauses = [ [ -1; 2 ] ] };
    { Qbf.prefix = [ Qbf.Forall; Qbf.Exists ];
      clauses = [ [ 1; 2 ]; [ -1; -2 ] ]
    }
  ]

let test_qbf_encoding_correct () =
  List.iter
    (fun q ->
      let truth = Qbf.valid q in
      let phi = Qbf_encoding.encode q in
      let verdict =
        (Sat.decide
           ~options:
             Sat.Options.(
               default |> with_verify true |> with_max_states 50_000)
           phi)
          .Sat.verdict
      in
      match (verdict, truth) with
      | Sat.Sat _, true | (Sat.Unsat | Sat.Unsat_bounded _), false -> ()
      | Sat.Unknown _, _ ->
        Alcotest.failf "solver gave up on %s" (Format.asprintf "%a" Qbf.pp q)
      | _ ->
        Alcotest.failf "encoding disagrees with QBF validity on %s"
          (Format.asprintf "%a" Qbf.pp q))
    qbf_instances

(* --- XML and attrXPath --- *)

let test_xml_parse () =
  let doc =
    Xml_doc.parse_exn
      {|<?xml version="1.0"?>
        <!-- catalogue -->
        <lib a="1"><b x='2'/><c>text</c></lib>|}
  in
  Alcotest.(check string) "tag" "lib" doc.Xml_doc.tag;
  Alcotest.(check int) "children" 2 (List.length doc.Xml_doc.elements);
  Alcotest.(check (list (pair string string))) "attrs" [ ("a", "1") ]
    doc.Xml_doc.attrs

let test_xml_parse_errors () =
  List.iter
    (fun src ->
      match Xml_doc.parse src with
      | Ok _ -> Alcotest.failf "expected parse error for %S" src
      | Error _ -> ())
    [ ""; "<a>"; "<a></b>"; "<a x=1/>"; "<a><b/>"; "plain" ]

let test_xml_encoding () =
  let doc = Xml_doc.parse_exn {|<a k="v" l="v"><b m="w"/></a>|} in
  let tree = Xml_doc.to_data_tree doc in
  (* a has 3 children: two attribute leaves and b. *)
  Alcotest.(check int) "root children" 3
    (List.length (Data_tree.children tree));
  (* Attribute values intern consistently: k and l carry equal data. *)
  match Data_tree.children tree with
  | [ k; l; b ] ->
    Alcotest.(check bool) "equal attr values" true
      (Data_tree.data k = Data_tree.data l);
    Alcotest.(check bool) "distinct from other value" true
      (Data_tree.data k
      <> Data_tree.data (List.hd (Data_tree.children b)));
    (* Element data values are fresh: distinct from attributes. *)
    Alcotest.(check bool) "element datum fresh" true
      (Data_tree.data tree <> Data_tree.data k)
  | _ -> Alcotest.fail "unexpected encoding shape"

let test_attr_xpath_translation () =
  let doc =
    Xml_doc.parse_exn
      {|<lib><book ID="5"><ref ID="5"/></book><book ID="8"><ref ID="5"/></book></lib>|}
  in
  let tree = Xml_doc.to_data_tree doc in
  let open Attr_xpath in
  let queries =
    [ Exists (Filter (Child, Tag "book"));
      Cmp (Filter (Child, Tag "book"), "ID", Ast.Eq,
           Seq (Filter (Child, Tag "book"), Filter (Child, Tag "ref")), "ID");
      Cmp (Filter (Child, Tag "book"), "ID", Ast.Neq,
           Filter (Child, Tag "book"), "ID");
      Not (Cmp (Filter (Descendant, Tag "ref"), "ID", Ast.Neq,
                Filter (Descendant, Tag "ref"), "ID"))
    ]
  in
  List.iter
    (fun q ->
      Alcotest.(check bool) "translation agrees with direct semantics"
        (check_doc doc q)
        (Semantics.check tree (tr q)))
    queries

let test_attr_xpath_sat () =
  let open Attr_xpath in
  (* A satisfiable attr query; the witness must respect ϕ_struct. *)
  let q =
    Cmp (Filter (Child, Tag "b"), "x", Ast.Eq, Filter (Child, Tag "c"), "x")
  in
  let formula = satisfiability_formula q in
  match (Sat.decide formula).Sat.verdict with
  | Sat.Sat _ -> ()
  | _ -> Alcotest.fail "attr query should be satisfiable"

(* --- document types --- *)

let dt_labels = List.map Label.of_string [ "a"; "b"; "c" ]

let schema : Doctype.t =
  [ { Doctype.parent = "a"; at_least = [ (2, "b") ]; forbidden = [ "c" ] } ]

let prop_doctype_agrees =
  Gen_helpers.qtest ~count:300 "doctype BIP = structural conformance"
    (Gen_helpers.arb_tree ~labels:[ "a"; "b"; "c" ] ~max_height:3
       ~max_width:4 ~max_data:2 ())
    (fun t ->
      Bip_run.accepts (Doctype.to_bip ~labels:dt_labels schema) t
      = Doctype.conforms ~labels:dt_labels schema t)

let test_doctype_restrict () =
  let phi = Xpds_xpath.Parser.node_of_string_exn "<desc[a & <down[b]>]>" in
  let m = Xpds_automata.Translate.of_node_somewhere ~labels:dt_labels phi in
  let restricted = Doctype.restrict m ~labels:dt_labels schema in
  let config =
    { Xpds_decision.Emptiness.default_config with
      Xpds_decision.Emptiness.bounds =
        { Xpds_decision.Bounds.default with merge_budget = Some 4 };
      max_states = 20_000
    }
  in
  match (Xpds_decision.Emptiness.check ~config restricted).outcome with
  | Xpds_decision.Emptiness.Nonempty w ->
    Alcotest.(check bool) "witness conforms" true
      (Doctype.conforms ~labels:dt_labels schema w);
    Alcotest.(check bool) "witness satisfies the query" true
      (Semantics.check_somewhere w
         (Xpds_xpath.Parser.node_of_string_exn "a & <down[b]>"))
  | _ -> Alcotest.fail "query satisfiable under the schema"

let test_doctype_unsat_under_schema () =
  (* "an a-node with a c-child" contradicts the schema. *)
  let phi = Xpds_xpath.Parser.node_of_string_exn "<desc[a & <down[c]>]>" in
  let m = Xpds_automata.Translate.of_node_somewhere ~labels:dt_labels phi in
  let restricted = Doctype.restrict m ~labels:dt_labels schema in
  let config =
    { Xpds_decision.Emptiness.default_config with
      Xpds_decision.Emptiness.bounds =
        { Xpds_decision.Bounds.default with merge_budget = Some 4 };
      max_states = 20_000
    }
  in
  match (Xpds_decision.Emptiness.check ~config restricted).outcome with
  | Xpds_decision.Emptiness.Nonempty _ ->
    Alcotest.fail "schema violation reported satisfiable"
  | _ -> ()

(* Certificate mode does not reach the doctype-restricted search: a
   data-free formula keeps the exact union closure, with the verdicts
   and counts of a run without it, and the report carries no seed. The
   schema forces four b-children, wider than the general engine's
   default width 3. *)
let test_doctype_ignores_certificate () =
  let wide : Doctype.t =
    [ { Doctype.parent = "a"; at_least = [ (4, "b") ]; forbidden = [ "c" ] } ]
  in
  let decide certificate s =
    let options =
      Sat.Options.with_certificate certificate Sat.Options.default
    in
    Sat.decide_under_doctype ~options ~doctype:wide
      (Xpds_xpath.Parser.node_of_string_exn s)
  in
  List.iter
    (fun (s, expect_sat, n_states, n_transitions) ->
      let r = decide true s in
      let plain = decide false s in
      Alcotest.(check string) (s ^ ": algorithm")
        "doctype-restricted (§4.1) data-free union closure" r.Sat.algorithm;
      (match r.Sat.verdict with
      | Sat.Sat w when expect_sat ->
        Alcotest.(check bool) (s ^ ": witness conforms") true
          (Doctype.conforms ~labels:dt_labels wide w)
      | Sat.Unsat when not expect_sat -> ()
      | v -> Alcotest.failf "%s: %a" s Sat.pp_verdict v);
      Alcotest.(check (pair int int)) (s ^ ": counts") (n_states, n_transitions)
        ( r.Sat.stats.Xpds_decision.Emptiness.n_states,
          r.Sat.stats.Xpds_decision.Emptiness.n_transitions );
      Alcotest.(check (pair int int)) (s ^ ": counts as without certificate")
        ( plain.Sat.stats.Xpds_decision.Emptiness.n_states,
          plain.Sat.stats.Xpds_decision.Emptiness.n_transitions )
        ( r.Sat.stats.Xpds_decision.Emptiness.n_states,
          r.Sat.stats.Xpds_decision.Emptiness.n_transitions );
      Alcotest.(check bool) (s ^ ": no seed") true (r.Sat.cert_seed = None))
    [ ("a", true, 6, 57); ("a & <down[c]>", false, 9, 120) ]

let suite =
  ( "encodings",
    [ Alcotest.test_case "tiling game examples" `Quick
        test_tiling_game_examples;
      Alcotest.test_case "tiling game stuck" `Quick test_tiling_game_stuck;
      Alcotest.test_case "tiling game forced win" `Quick
        test_tiling_game_forced_win;
      Alcotest.test_case "tiling validation" `Quick test_tiling_validate;
      Alcotest.test_case "tiling encoding fragment" `Quick
        test_tiling_encoding_fragment;
      Alcotest.test_case "tiling encoding polynomial" `Quick
        test_tiling_encoding_polynomial;
      Alcotest.test_case "tiling losing instance not SAT" `Slow
        test_tiling_encoding_no_false_sat;
      Alcotest.test_case "tiling strategy witness" `Quick
        test_tiling_strategy_witness;
      Alcotest.test_case "tiling strategy witness (longer)" `Quick
        test_tiling_strategy_witness_longer;
      Alcotest.test_case "qbf solver" `Quick test_qbf_solver;
      Alcotest.test_case "qbf parser" `Quick test_qbf_parser;
      Alcotest.test_case "qbf encoding fragment" `Quick
        test_qbf_encoding_fragment;
      Alcotest.test_case "qbf encoding correct" `Slow
        test_qbf_encoding_correct;
      Alcotest.test_case "xml parse" `Quick test_xml_parse;
      Alcotest.test_case "xml parse errors" `Quick test_xml_parse_errors;
      Alcotest.test_case "xml encoding" `Quick test_xml_encoding;
      Alcotest.test_case "attrXPath translation" `Quick
        test_attr_xpath_translation;
      Alcotest.test_case "attrXPath satisfiability" `Quick
        test_attr_xpath_sat;
      prop_doctype_agrees;
      Alcotest.test_case "doctype restrict sat" `Quick test_doctype_restrict;
      Alcotest.test_case "doctype restrict unsat" `Quick
        test_doctype_unsat_under_schema;
      Alcotest.test_case "doctype ignores certificate mode" `Quick
        test_doctype_ignores_certificate
    ] )
