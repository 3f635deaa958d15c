(* The bulk evaluation engine (lib/eval) against its oracles: Doc
   flattening round-trips and index invariants, ≥600 random differential
   (tree, formula) instances against the reference Semantics — star-free
   and full regXPath — per-path relation agreement, the same on wide
   trees (multi-word payloads) and deep narrow ones under stars, the
   node_evals accounting, batch outcomes on fixed documents (a
   600-node chain with 71 data values, an XML library), deadlines at
   every poll of a star query, SAT-witness replay through both engines,
   and invertibility of the
   Appendix-A XML encoding at the array level (including duplicate
   attribute names).

   Nothing here interns labels at module init: the engine-stat goldens
   in t_bitv pin the global intern order, so every tree/formula below is
   built inside a test body. *)

open Xpds_eval
module Ast = Xpds_xpath.Ast
module Semantics = Xpds_xpath.Semantics
module Data_tree = Xpds_datatree.Data_tree
module Path = Xpds_datatree.Path
module Xml_doc = Xpds_datatree.Xml_doc
module Attr_xpath = Xpds_encodings.Attr_xpath
module Sat = Xpds_decision.Sat

(* --- Doc: flattening round trip and index invariants --- *)

let prop_doc_roundtrip =
  Gen_helpers.qtest ~count:300 "Doc.to_tree inverts Doc.of_tree"
    (Gen_helpers.arb_tree ())
    (fun t -> Data_tree.equal t (Doc.to_tree (Doc.of_tree t)))

let prop_doc_invariants =
  Gen_helpers.qtest ~count:300 "Doc indexes agree with tree positions"
    (Gen_helpers.arb_tree ())
    (fun t ->
      let d = Doc.of_tree t in
      let n = d.Doc.n in
      let positions = Array.of_list (Data_tree.positions t) in
      (* preorder ids enumerate the tree's preorder positions *)
      Array.length positions = n
      && Array.for_all
           (fun x -> Path.equal (Doc.position d x) positions.(x))
           (Array.init n (fun x -> x))
      && Array.for_all
           (fun x -> Doc.id_of_position d positions.(x) = Some x)
           (Array.init n (fun x -> x))
      (* the pre/post sandwich is exactly the positional prefix order *)
      && List.for_all
           (fun x ->
             List.for_all
               (fun y ->
                 Doc.is_ancestor_or_self d x y
                 = Path.is_prefix positions.(x) positions.(y))
               (List.init n (fun y -> y)))
           (List.init n (fun x -> x))
      (* the subtree of x is the contiguous interval [x .. x+size-1] *)
      && List.for_all
           (fun x ->
             List.for_all
               (fun y ->
                 Doc.is_ancestor_or_self d x y
                 = (x <= y && y < x + d.Doc.size.(x)))
               (List.init n (fun y -> y)))
           (List.init n (fun x -> x)))

(* --- differential fuzzing against the reference semantics --- *)

let differential (phi, t) =
  let v = Oracle.check t phi in
  if not v.Oracle.agree then
    QCheck.Test.fail_reportf "engines disagree on %s:@.%s"
      (Data_tree.to_string t)
      (Format.asprintf "%a" Oracle.pp_verdict v)
  else true

let prop_diff_star_free =
  Gen_helpers.qtest ~count:300 "eval = semantics on star-free formulas"
    (QCheck.pair
       (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
       (Gen_helpers.arb_tree ()))
    differential

let prop_diff_regxpath =
  Gen_helpers.qtest ~count:300 "eval = semantics on full regXPath"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    differential

let prop_diff_path_relations =
  Gen_helpers.qtest ~count:150
    "eval path rows = semantics path pairs (every path subformula)"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    (fun (phi, t) ->
      let d = Doc.of_tree t in
      let e = Eval.create d in
      let env = Semantics.env_of_tree t in
      List.for_all
        (fun alpha ->
          let rows = Eval.path_rows e alpha in
          let pairs = ref [] in
          for x = d.Doc.n - 1 downto 0 do
            Bitv.iter
              (fun y ->
                pairs := (Doc.position d x, Doc.position d y) :: !pairs)
              rows.(x)
          done;
          (* both ascending in (source, target) preorder *)
          List.sort compare !pairs
          = List.sort compare (Semantics.path_pairs env alpha))
        (Ast.path_subformulas phi))

(* --- shapes beyond the small generators: multi-word payloads --- *)

(* A tree from a parent array ([parent.(i) < i]), one label and datum
   per node. *)
let tree_of_parents ~parent ~label ~data =
  let n = Array.length parent in
  let kids = Array.make n [] in
  for i = n - 1 downto 1 do
    kids.(parent.(i)) <- i :: kids.(parent.(i))
  done;
  let rec build i =
    Data_tree.node label.(i) data.(i) (List.map build kids.(i))
  in
  build 0

let labels = [| "a"; "b"; "c" |]

(* 64–160 nodes under uniformly random parents, with 64 or more
   distinct data values: node sets, identity rows and data-class images
   all span several words. *)
let gen_wide_tree : Data_tree.t QCheck.Gen.t =
 fun st ->
  let n = 64 + Random.State.int st 97 in
  let m = 64 + Random.State.int st (n - 63) in
  let classes = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = classes.(i) in
    classes.(i) <- classes.(j);
    classes.(j) <- x
  done;
  tree_of_parents
    ~parent:
      (Array.init n (fun i -> if i = 0 then -1 else Random.State.int st i))
    ~label:(Array.init n (fun _ -> labels.(Random.State.int st 3)))
    ~data:
      (Array.init n (fun i ->
           if i < m then classes.(i) else Random.State.int st m))

(* 121–180 nodes, each the child of node i-1 or (sometimes) i-2: width
   at most 2, height at least 60; data from 2, 4 or 80 values. *)
let gen_deep_tree : Data_tree.t QCheck.Gen.t =
 fun st ->
  let n = 121 + Random.State.int st 60 in
  let branching = Random.State.int st 3 in
  let m = [| 2; 4; 80 |].(Random.State.int st 3) in
  tree_of_parents
    ~parent:
      (Array.init n (fun i ->
           if i = 0 then -1
           else if i >= 2 && Random.State.int st 10 < branching then i - 2
           else i - 1))
    ~label:(Array.init n (fun _ -> labels.(Random.State.int st 3)))
    ~data:(Array.init n (fun _ -> Random.State.int st m))

let arb_shaped gen_tree gen_formula =
  QCheck.make
    ~print:(fun (phi, t) ->
      Xpds_xpath.Pp.node_to_string phi ^ " on " ^ Data_tree.to_string t)
    (QCheck.Gen.pair gen_formula gen_tree)

(* Every node subformula's node set and every path subformula's rows
   agree with the reference semantics, all on one evaluator (so images
   of one path under several payloads share its memo entries). Pairs
   are compared as pre-order ids: positions on deep trees are long. *)
let agrees_everywhere (phi, t) =
  let d = Doc.of_tree t in
  let e = Eval.create d in
  let env = Semantics.env_of_tree t in
  let id p = Option.get (Doc.id_of_position d p) in
  List.for_all
    (fun psi -> Eval.selected_positions e psi = Semantics.sat_nodes env psi)
    (Ast.node_subformulas phi)
  && List.for_all
       (fun alpha ->
         let rows = Eval.path_rows e alpha in
         let pairs = ref [] in
         Array.iteri
           (fun x r -> Bitv.iter (fun y -> pairs := (x, y) :: !pairs) r)
           rows;
         List.sort compare !pairs
         = List.sort compare
             (List.map
                (fun (x, y) -> (id x, id y))
                (Semantics.path_pairs env alpha)))
       (Ast.path_subformulas phi)

let prop_wide_trees =
  Gen_helpers.qtest ~count:60
    "eval = semantics on wide trees with > 63 nodes and data values"
    (arb_shaped gen_wide_tree Gen_helpers.gen_node)
    agrees_everywhere

(* Formulas with a star under both kinds of image: ⟨α*[ψ]⟩ and a
   comparison α* ~ β, next to a random regXPath formula. *)
let gen_star_formula : Ast.node QCheck.Gen.t =
  let open QCheck.Gen in
  let sub = Gen_helpers.gen_node in
  let path = Gen_helpers.gen_path_cfg Gen_helpers.full_cfg in
  map
    (fun ((alpha, beta), (psi, op), phi) ->
      Ast.Or
        ( Ast.And
            ( Ast.Exists (Ast.Filter (Ast.Star alpha, psi)),
              Ast.Cmp (Ast.Star alpha, op, beta) ),
          phi ))
    (triple (pair path path) (pair sub (oneofl [ Ast.Eq; Ast.Neq ])) sub)

let prop_deep_trees =
  Gen_helpers.qtest ~count:40
    "eval = semantics on narrow trees of height >= 60 under stars"
    (arb_shaped gen_deep_tree gen_star_formula)
    agrees_everywhere

(* --- memoization, batching, deadline --- *)

let test_memo_sharing () =
  let t = Data_tree.of_string_exn "a:1(b:2(c:1),b:3(a:2),c:1)" in
  let e = Eval.create (Doc.of_tree t) in
  let phi = Xpds_xpath.Parser.node_of_string_exn "<desc[b & eps = down]>" in
  let (_ : Bitv.t) = Eval.nodes e phi in
  let work = Eval.node_evals e in
  Alcotest.(check bool) "did some work" true (work > 0);
  let (_ : Bitv.t) = Eval.nodes e phi in
  Alcotest.(check int) "second evaluation is free" work (Eval.node_evals e);
  (* a superformula pays only for the new connective *)
  let (_ : Bitv.t) = Eval.nodes e (Ast.Not phi) in
  Alcotest.(check int) "superformula reuses the memo"
    (work + Data_tree.size t) (Eval.node_evals e)

let test_path_charged_once () =
  (* ⟨α⟩ takes α's reach image and α = β its data-class image: two
     payloads, one charge per distinct sub-expression. *)
  let t = Data_tree.of_string_exn "a:1(b:2(c:1),b:3(a:2),c:1)" in
  let n = Data_tree.size t in
  let parse = Xpds_xpath.Parser.node_of_string_exn in
  let e = Eval.create (Doc.of_tree t) in
  let (_ : Bitv.t) = Eval.nodes e (parse "<down[b]> & down[b] = desc") in
  (* nodes ∧, ⟨⟩, =, b; paths down[b], down, desc *)
  Alcotest.(check int) "every sub-expression once" (7 * n) (Eval.node_evals e);
  let (_ : Bitv.t) = Eval.nodes e (parse "down[b] != desc") in
  Alcotest.(check int) "a new comparison pays for itself only" (8 * n)
    (Eval.node_evals e)

let prop_charge_per_subformula =
  Gen_helpers.qtest ~count:200
    "a fresh evaluation charges n per distinct subformula"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    (fun (phi, t) ->
      let e = Eval.create (Doc.of_tree t) in
      let (_ : Bitv.t) = Eval.nodes e phi in
      Eval.node_evals e
      = Data_tree.size t
        * (List.length (Ast.node_subformulas phi)
          + List.length (Ast.path_subformulas phi)))

(* Batch outcomes against the reference semantics, position for
   position, on three documents: a small tree; a 600-node chain with 71
   data values under star and data-comparison queries (the star's
   dynamic program over the longest rows, data-class images spanning two
   words); and an XML library flattened by [Doc.of_xml], against the
   semantics of its Appendix-A encoding. *)
let check_batch name doc env queries =
  let formulas = List.map Xpds_xpath.Parser.node_of_string_exn queries in
  let b = Batch.run doc formulas in
  List.iter2
    (fun (q, phi) o ->
      let what = Printf.sprintf "%s, %s: " name q in
      Alcotest.(check bool) (what ^ "batch root = semantics root")
        (Semantics.holds_at_root env phi)
        o.Batch.root;
      let expected = Semantics.sat_nodes env phi in
      Alcotest.(check int) (what ^ "batch count") (List.length expected)
        o.Batch.count;
      Alcotest.(check bool) (what ^ "batch positions") true
        (List.equal Path.equal expected (Batch.positions b o)))
    (List.combine queries formulas)
    b.Batch.outcomes

let test_batch () =
  let t = Data_tree.of_string_exn "a:1(b:1(c:2),b:2,a:1)" in
  check_batch "small tree" (Doc.of_tree t) (Semantics.env_of_tree t)
    [ "<down[b]>"; "eps = down[b]"; "<desc[c]> & !b"; "false" ];
  let n = 600 in
  let chain =
    tree_of_parents
      ~parent:(Array.init n (fun i -> i - 1))
      ~label:(Array.init n (fun i -> [| "a"; "b"; "c"; "d"; "lib" |].(i mod 5)))
      ~data:(Array.init n (fun i -> i * 7 mod 71))
  in
  check_batch "chain" (Doc.of_tree chain) (Semantics.env_of_tree chain)
    [ "eps = (down)*[a]";
      "eps != (down/down)*[b]";
      "<(desc/down)*[c & eps = down/down]>";
      "<(down/down)*[a & eps = down]>";
      "down[a] = (down)*[b]";
      "<desc[eps = (down[b])*/down[c]]>";
      "eps = desc[d]"
    ];
  let xml =
    Xml_doc.parse_exn
      ("<lib>"
      ^ String.concat ""
          (List.init 60 (fun i ->
               Printf.sprintf
                 "<book id='%d' shelf='s%d'><ref to='%d'/><ref to='%d'/></book>"
                 i (i mod 7) ((i + 1) mod 60) (i * 3 mod 60)))
      ^ "</lib>")
  in
  check_batch "xml" (Doc.of_xml xml)
    (Semantics.env_of_tree (Xml_doc.to_data_tree xml))
    [ "<down[book & <down[ref]>]>";
      "<desc[to]>";
      "<desc[book & down[id] != down[shelf]]>";
      "<desc[ref & eps = eps]>"
    ]

let test_deadline () =
  let t = Data_tree.of_string_exn "a:1(b:2,c:3)" in
  let e = Eval.create ~should_stop:(fun () -> true) (Doc.of_tree t) in
  match Eval.nodes e (Ast.Exists (Ast.Axis Ast.Child)) with
  | (_ : Bitv.t) -> Alcotest.fail "deadline must fire"
  | exception Eval.Deadline -> ()

let test_deadline_inside_star () =
  (* A deadline at every poll of a star query on a 300-node chain with
     75 data values; the interrupted evaluator, with the hook off, must
     still give the reference answer, so no partial memo entry
     survived. *)
  let n = 300 in
  let t =
    tree_of_parents
      ~parent:(Array.init n (fun i -> i - 1))
      ~label:(Array.init n (fun i -> labels.(i mod 3)))
      ~data:(Array.init n (fun i -> i * 7 mod 75))
  in
  let d = Doc.of_tree t in
  let env = Semantics.env_of_tree t in
  let phi =
    Xpds_xpath.Parser.node_of_string_exn
      "<(down/down[a | b])*[c & eps != desc]> | eps = (down[b])*/down[c]"
  in
  let expected = Semantics.sat_nodes env phi in
  let polls = ref 0 and armed = ref false and fire_at = ref 0 in
  let should_stop () =
    incr polls;
    !armed && !polls >= !fire_at
  in
  let (_ : Bitv.t) = Eval.nodes (Eval.create ~should_stop d) phi in
  let total = !polls in
  Alcotest.(check bool) "the query polls often" true (total >= 10);
  for k = 1 to total do
    polls := 0;
    fire_at := k;
    armed := true;
    let e = Eval.create ~should_stop d in
    (match Eval.nodes e phi with
    | (_ : Bitv.t) -> Alcotest.failf "deadline at poll %d must fire" k
    | exception Eval.Deadline -> ());
    armed := false;
    if Eval.selected_positions e phi <> expected then
      Alcotest.failf "wrong answer after a deadline at poll %d" k
  done

(* --- SAT-witness replay --- *)

let test_witness_replay () =
  (* Every witness the solver produces on the quick corpus must satisfy
     its formula per BOTH engines (Oracle.replay = somewhere-sat and
     full sat-set agreement). *)
  let families =
    List.concat
      [ List.init 4 (fun i -> Families.child_chain ~sat:true (i + 1));
        [ Families.data_chain ~sat:true 2;
          Families.data_chain ~sat:true 3;
          Families.desc_data ~sat:true 1;
          Families.reg_alternation ~sat:true ()
        ];
        List.init 3 (fun i -> Families.root_data (i + 1));
        List.init 5 (fun i -> Families.mixed_axes ~sat:true (i + 1))
      ]
  in
  let random =
    List.init 50 (fun i ->
        Gen_formula.gen ~state:(Random.State.make [| 0xEAA1; i |]) ())
  in
  let options =
    Sat.Options.(
      default |> with_verify false |> with_max_states 2_000
      |> with_max_transitions 20_000)
  in
  let sat_seen = ref 0 in
  List.iter
    (fun phi ->
      match (Sat.decide ~options phi).Sat.verdict with
      | Sat.Sat witness ->
        incr sat_seen;
        if not (Oracle.replay phi witness) then
          Alcotest.failf "witness fails to replay for %s"
            (Xpds_xpath.Pp.node_to_string phi)
      | _ -> ())
    (families @ random);
  (* the corpus must actually exercise the replay path *)
  Alcotest.(check bool)
    (Printf.sprintf "enough SAT verdicts (%d)" !sat_seen)
    true (!sat_seen >= 15)

(* --- XML round trip through the array encoding --- *)

let gen_xml_doc : Xml_doc.doc QCheck.Gen.t =
  let open QCheck.Gen in
  let tag = oneofl [ "lib"; "book"; "ref"; "a" ] in
  (* duplicate names on purpose: the name pool is tiny *)
  let attrs =
    list_size (int_bound 3)
      (pair (oneofl [ "id"; "ref"; "x" ]) (oneofl [ "u"; "v"; "w"; "" ]))
  in
  let rec doc depth st =
    let width = if depth = 0 then 0 else Stdlib.min 3 (int_bound 3 st) in
    {
      Xml_doc.tag = tag st;
      attrs = attrs st;
      elements = List.init width (fun _ -> doc (depth - 1) st);
    }
  in
  int_bound 3 >>= doc

let arb_xml_doc =
  QCheck.make gen_xml_doc ~print:(Format.asprintf "%a" Xml_doc.pp)

let prop_xml_roundtrip =
  Gen_helpers.qtest ~count:300 "decode inverts the Appendix-A encoding"
    arb_xml_doc
    (fun doc ->
      match Xml_codec.decode (Xml_codec.encode doc) with
      | Ok doc' -> doc = doc'
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let test_xml_roundtrip_duplicate_attrs () =
  (* Regression: duplicate attribute names survive — one leaf per
     binding in the encoding, every binding restored by the decoder,
     order preserved. *)
  let src =
    {|<lib><book id="5" id="5" ref="7"><r id="5"/></book><book id="7" id="5"/></lib>|}
  in
  let doc = Xml_doc.parse_exn src in
  (match Xml_codec.decode (Xml_codec.encode doc) with
  | Ok doc' -> Alcotest.(check bool) "round trip" true (doc = doc')
  | Error e -> Alcotest.fail e);
  match doc.Xml_doc.elements with
  | book :: _ ->
    Alcotest.(check (list (pair string string)))
      "both bindings present" [ ("id", "5"); ("id", "5"); ("ref", "7") ]
      book.Xml_doc.attrs
  | [] -> Alcotest.fail "unexpected parse shape"

let test_xml_decode_errors () =
  let decode_tree s = Xml_codec.decode (Doc.of_tree (Data_tree.of_string_exn s)) in
  let check_err name r =
    match r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: decode must fail" name
  in
  (* an element (the root) with an even datum *)
  check_err "even root" (decode_tree "a:0");
  (* an attribute leaf (even datum) with children *)
  check_err "attr with children" (decode_tree "a:1(b:2(c:3))");
  (* an even datum never interned as an attribute value *)
  check_err "unknown intern" (decode_tree "a:1(b:2000002)")

let test_check_doc_duplicate_attrs () =
  (* Regression for the Attr_xpath.check_doc fix: with two bindings of
     [x], x ≠ x holds at the element — and the direct semantics agrees
     with the Appendix-A encoding, on both evaluation engines. *)
  let doc = Xml_doc.parse_exn {|<a x="1" x="2"/>|} in
  let q = Attr_xpath.Cmp (Attr_xpath.Self, "x", Ast.Neq, Attr_xpath.Self, "x") in
  Alcotest.(check bool) "both bindings visible to check_doc" true
    (Attr_xpath.check_doc doc q);
  let tree = Xml_doc.to_data_tree doc in
  Alcotest.(check bool) "agrees with encoded Semantics" true
    (Semantics.check tree (Attr_xpath.tr q));
  Alcotest.(check bool) "agrees with encoded Eval" true
    (Eval.holds_at_root (Eval.create (Doc.of_xml doc)) (Attr_xpath.tr q));
  (* single binding: x ≠ x must stay false everywhere *)
  let doc1 = Xml_doc.parse_exn {|<a x="1"/>|} in
  Alcotest.(check bool) "single binding is not self-distinct" false
    (Attr_xpath.check_doc doc1 q)

let prop_attr_xpath_agrees_encoded =
  (* check_doc = Eval over the array-encoded document, on random XML and
     random attrXPath-shaped queries built from a fixed skeleton pool. *)
  let queries =
    [ Attr_xpath.Exists (Attr_xpath.Filter (Attr_xpath.Child, Attr_xpath.Tag "book"));
      Attr_xpath.Cmp (Attr_xpath.Descendant, "id", Ast.Eq, Attr_xpath.Descendant, "ref");
      Attr_xpath.Cmp (Attr_xpath.Descendant, "id", Ast.Neq, Attr_xpath.Descendant, "id");
      Attr_xpath.Cmp (Attr_xpath.Self, "id", Ast.Eq, Attr_xpath.Child, "id");
      Attr_xpath.Not
        (Attr_xpath.Cmp (Attr_xpath.Descendant, "x", Ast.Neq, Attr_xpath.Descendant, "x"))
    ]
  in
  Gen_helpers.qtest ~count:200 "check_doc = Eval on the encoded document"
    arb_xml_doc
    (fun doc ->
      let e = Eval.create (Doc.of_xml doc) in
      List.for_all
        (fun q ->
          Attr_xpath.check_doc doc q
          = Eval.holds_at_root e (Attr_xpath.tr q))
        queries)

let suite =
  ( "eval",
    [ prop_doc_roundtrip;
      prop_doc_invariants;
      prop_diff_star_free;
      prop_diff_regxpath;
      prop_diff_path_relations;
      prop_wide_trees;
      prop_deep_trees;
      Alcotest.test_case "memo sharing across a batch" `Quick
        test_memo_sharing;
      Alcotest.test_case "a path is charged once across payloads" `Quick
        test_path_charged_once;
      prop_charge_per_subformula;
      Alcotest.test_case "batch outcomes" `Quick test_batch;
      Alcotest.test_case "deadline" `Quick test_deadline;
      Alcotest.test_case "deadline inside a star" `Quick
        test_deadline_inside_star;
      Alcotest.test_case "SAT-witness replay" `Slow test_witness_replay;
      prop_xml_roundtrip;
      Alcotest.test_case "xml round trip with duplicate attrs" `Quick
        test_xml_roundtrip_duplicate_attrs;
      Alcotest.test_case "xml decode errors" `Quick test_xml_decode_errors;
      Alcotest.test_case "check_doc with duplicate attrs" `Quick
        test_check_doc_duplicate_attrs;
      prop_attr_xpath_agrees_encoded
    ] )
