(* Edge cases across the stack: semantics corner cases, explanations,
   printing. *)

open Xpds_xpath
(* Bitv is the shared xpds.bitv library (unwrapped). *)
module Data_tree = Xpds_datatree.Data_tree

let parse = Parser.node_of_string_exn

let test_star_of_eps_terminates () =
  (* α* where α relates every node to itself: the closure must not
     loop. *)
  let t = Data_tree.node "a" 0 [ Data_tree.node "b" 1 [] ] in
  Alcotest.(check bool) "eps* holds" true
    (Semantics.check t (parse "<eps*>"));
  Alcotest.(check bool) "(eps|down)* reaches b" true
    (Semantics.check t (parse "<(eps|down)*[b]>"))

let test_star_guard () =
  (* A star whose body is guarded: ([a]down)* walks only through
     a-labelled nodes. *)
  let t =
    Data_tree.node "a" 0
      [ Data_tree.node "a" 1 [ Data_tree.node "b" 2 [ Data_tree.node "a" 3 [] ] ] ]
  in
  Alcotest.(check bool) "two a-steps" true
    (Semantics.check t (parse "<([a]down)*[b]>"));
  Alcotest.(check bool) "cannot pass through b" false
    (Semantics.check t (parse "<([a]down)*[~a & ~b]>"))

let test_empty_filter_semantics () =
  let t = Data_tree.node "a" 0 [] in
  Alcotest.(check bool) "filter false is empty" false
    (Semantics.check t (parse "<desc[false]>"));
  Alcotest.(check bool) "comparison over empty path" false
    (Semantics.check t (parse "desc[false] = eps"))

let test_explain_table () =
  let t = Data_tree.example_fig1 () in
  let env = Semantics.env_of_tree t in
  let phi = parse "b & <down[b]>" in
  let table = Explain.subformula_table env phi in
  (* Subformulas: b, <down[b]>, conjunction — each with positions. *)
  Alcotest.(check int) "three subformulas" 3 (List.length table);
  let holds psi =
    match List.assoc_opt psi table with
    | Some ps -> ps
    | None -> Alcotest.fail "missing subformula"
  in
  Alcotest.(check bool) "b holds somewhere" true (holds (parse "b") <> []);
  (* The rendered explanation contains the tree and each line. *)
  let rendered = Format.asprintf "%a" (fun ppf () -> Explain.pp ppf t phi) () in
  Alcotest.(check bool) "render mentions the conjunction" true
    (String.length rendered > 40)

let test_tree_of_string_roundtrip () =
  let t = Data_tree.example_fig1 () in
  let s =
    (* print in the compact CLI syntax by hand *)
    "a:1(a:1(b:2,b:1(b:2,b:3,a:1)),b:5(b:5))"
  in
  match Data_tree.of_string s with
  | Ok t' -> Alcotest.(check bool) "equal" true (Data_tree.equal t t')
  | Error e -> Alcotest.failf "parse: %s" e

let test_tree_of_string_errors () =
  List.iter
    (fun s ->
      match Data_tree.of_string s with
      | Ok _ -> Alcotest.failf "expected error for %S" s
      | Error _ -> ())
    [ ""; "a"; "a:"; "a:1("; "a:1(b:2,)"; "a:1 b:2"; ":1" ]

let test_fancy_printing () =
  let phi = parse "<desc[b & down[b] != down[b]]> | ~(eps = down)" in
  let fancy = Format.asprintf "%a" Pp.pp_fancy_node phi in
  Alcotest.(check bool) "contains unicode arrow" true
    (String.length fancy > 0
    && (let has sub =
          let rec go i =
            i + String.length sub <= String.length fancy
            && (String.sub fancy i (String.length sub) = sub || go (i + 1))
          in
          go 0
        in
        has "\xe2\x86\x93" (* ↓ *) && has "\xe2\x89\xa0" (* ≠ *)))

let test_serialize_tree () =
  let t = Data_tree.node "a" 1 [ Data_tree.node "b" 2 [] ] in
  Alcotest.(check string) "tree json"
    "{\"label\":\"a\",\"data\":1,\"children\":[{\"label\":\"b\",\"data\":2,\"children\":[]}]}"
    (Xpds.Serialize.tree_to_json t)

let test_dot_outputs () =
  let t = Data_tree.example_fig1 () in
  let dot = Xpds.Dot.data_tree t in
  Alcotest.(check bool) "tree dot well formed" true
    (String.length dot > 50
    && String.sub dot 0 7 = "digraph"
    && dot.[String.length dot - 2] = '}');
  let m = Xpds.Translate.of_node (parse "<desc[a]>") in
  let bip_dot = Xpds.Dot.bip m in
  Alcotest.(check bool) "bip dot well formed" true
    (String.length bip_dot > 50 && String.sub bip_dot 0 7 = "digraph");
  let nfa = Xpds_automata.Nfa.of_path (Parser.path_of_string_exn "down[a]/desc") in
  Alcotest.(check bool) "nfa dot well formed" true
    (String.sub (Xpds.Dot.nfa nfa) 0 7 = "digraph")

let test_label_of_int_bounds () =
  match Xpds_datatree.Label.of_int max_int with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  ( "misc",
    [ Alcotest.test_case "star of eps terminates" `Quick
        test_star_of_eps_terminates;
      Alcotest.test_case "guarded star" `Quick test_star_guard;
      Alcotest.test_case "empty filters" `Quick test_empty_filter_semantics;
      Alcotest.test_case "explain table" `Quick test_explain_table;
      Alcotest.test_case "tree syntax roundtrip" `Quick
        test_tree_of_string_roundtrip;
      Alcotest.test_case "tree syntax errors" `Quick
        test_tree_of_string_errors;
      Alcotest.test_case "fancy printing" `Quick test_fancy_printing;
      Alcotest.test_case "serialize tree" `Quick test_serialize_tree;
      Alcotest.test_case "dot outputs" `Quick test_dot_outputs;
      Alcotest.test_case "label bounds" `Quick test_label_of_int_bounds
    ] )
