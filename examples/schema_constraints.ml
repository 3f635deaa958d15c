(* Satisfiability under document types (§4.1): counting DTDs that demand
   "every a has at least n b-children and no c-child". We check queries
   against a schema by intersecting BIP automata.

   Run with:  dune exec examples/schema_constraints.exe *)

let labels = List.map Xpds.Label.of_string [ "library"; "book"; "author"; "review" ]

(* Schema: every book has at least one author and no nested book;
   the library has at least two books. *)
let schema : Xpds.Doctype.t =
  [ { Xpds.Doctype.parent = "book";
      at_least = [ (1, "author") ];
      forbidden = [ "book" ]
    };
    { Xpds.Doctype.parent = "library";
      at_least = [ (2, "book") ];
      forbidden = []
    }
  ]

let () =
  (* The conformance automaton agrees with the direct structural check
     on a few handcrafted trees. *)
  let dt = Xpds.Doctype.to_bip ~labels schema in
  let t s = Xpds.Data_tree.of_string_exn s in
  let cases =
    [ ("two proper books",
       t "library:0(book:1(author:2),book:3(author:4,review:5))", true);
      ("one book only", t "library:0(book:1(author:2))", false);
      ("authorless book",
       t "library:0(book:1(author:2),book:3(review:4))", false);
      ("nested book",
       t "library:0(book:1(author:2,book:9(author:3)),book:4(author:5))",
       false)
    ]
  in
  List.iter
    (fun (name, tree, expected) ->
      let direct = Xpds.Doctype.conforms ~labels schema tree in
      let by_automaton = Xpds.Bip_run.accepts dt tree in
      Format.printf "%-20s conforms=%b (automaton %b, expected %b)@." name
        direct by_automaton expected;
      assert (direct = expected && by_automaton = expected))
    cases;

  (* Static query check under the schema: "some library node has a book
     child without authors" is unsatisfiable within the schema, while
     "some book has a review" is satisfiable — and the witness produced
     by the emptiness procedure conforms to the schema. *)
  let check name query =
    let phi = Xpds.Parser.node_of_string_exn query in
    let m = Xpds.Translate.of_node_somewhere ~labels phi in
    let restricted = Xpds.Doctype.restrict m ~labels schema in
    let config =
      { Xpds.Emptiness.default_config with
        Xpds.Emptiness.bounds = Xpds.Bounds.default;
        max_states = 20_000
      }
    in
    match (Xpds.Emptiness.check ~config restricted).outcome with
    | Xpds.Emptiness.Nonempty w ->
      Format.printf "%-45s SAT under schema,@.    witness %a (conforms %b)@."
        name Xpds.Data_tree.pp w
        (Xpds.Doctype.conforms ~labels schema w)
    | Xpds.Emptiness.Empty | Xpds.Emptiness.Bounded_empty ->
      Format.printf "%-45s UNSAT under schema@." name
    | Xpds.Emptiness.Resource_limit why ->
      Format.printf "%-45s unknown (%s)@." name why
  in
  Format.printf "@.";
  check "book with a review" "<desc[book & <down[review]>]>";
  check "book without author" "<desc[book & ~<down[author]>]>";
  (* Note: the schema demands two books, but nothing forbids them from
     carrying the same datum — the solver finds exactly that corner. *)
  check "library whose books share a datum"
    "<desc[library & <down[book]> & ~(down[book] != down[book])]>"
