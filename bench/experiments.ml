(* The experiment harness: one function per experiment of DESIGN.md §4,
   each printing the table recorded in EXPERIMENTS.md. *)

open Xpds.Ast
module B = Xpds.Build

let solver_budget = 20_000

let decide ?(width = 3) ?(max_states = solver_budget)
    ?(max_transitions = 400_000) phi =
  let options =
    Xpds.Sat.Options.(
      default |> with_width width |> with_max_states max_states
      |> with_max_transitions max_transitions)
  in
  Xpds.Sat.decide ~options phi

(* --- E1: XPath(↓) — PSpace row, Prop 3 --- *)

let e1 () =
  let columns =
    [ ("n", 4); ("variant", 8); ("fragment", 12); ("H", 5); ("verdict", 8);
      ("states", 8); ("time", 9)
    ]
  in
  Table.print_header "E1: XPath(v) nested-child family (Prop 3)" columns;
  List.iter
    (fun n ->
      List.iter
        (fun sat ->
          let phi = Families.child_chain ~sat n in
          let r, t = Table.time (fun () -> decide phi) in
          Table.print_row columns
            [ string_of_int n;
              (if sat then "sat" else "unsat");
              Xpds.Fragment.name r.Xpds.Sat.fragment;
              (match Xpds.Fragment.poly_depth_bound phi with
              | Some b -> string_of_int b
              | None -> "-");
              Table.verdict_string r.Xpds.Sat.verdict;
              string_of_int r.Xpds.Sat.stats.Xpds.Emptiness.n_states;
              Table.seconds t
            ])
        [ true; false ])
    [ 1; 2; 4; 6; 8; 10 ]

(* --- E2: XPath(↓,=) — PSpace row with data, Prop 3 --- *)

let e2 () =
  let columns =
    [ ("n", 4); ("variant", 8); ("H", 5); ("verdict", 8); ("height", 7);
      ("states", 8); ("time", 9)
    ]
  in
  Table.print_header "E2: XPath(v,=) root-datum-at-depth-n family (Prop 3)"
    columns;
  List.iter
    (fun (n, sat) ->
      let phi = Families.data_chain ~sat n in
      let r, t = Table.time (fun () -> decide ~max_transitions:150_000 phi) in
      let height =
        match r.Xpds.Sat.verdict with
        | Xpds.Sat.Sat w -> string_of_int (Xpds.Data_tree.height w)
        | _ -> "-"
      in
      Table.print_row columns
        [ string_of_int n;
          (if sat then "sat" else "unsat");
          (match Xpds.Fragment.poly_depth_bound phi with
          | Some b -> string_of_int b
          | None -> "-");
          Table.verdict_string r.Xpds.Sat.verdict;
          height;
          string_of_int r.Xpds.Sat.stats.Xpds.Emptiness.n_states;
          Table.seconds t
        ])
    [ (1, true); (1, false); (2, true); (2, false); (3, true); (3, false);
      (4, true)
    ]

(* --- E3: XPath(↓∗) — PSpace row via the Prop-8 QBF reduction --- *)

let e3 () =
  let columns =
    [ ("vars", 5); ("qbf", 7); ("enc size", 8); ("verdict", 8);
      ("agree", 6); ("states", 8); ("time", 9)
    ]
  in
  Table.print_header "E3: XPath(v*) via QBF encodings (Prop 5/8)" columns;
  List.iter
    (fun n ->
      let valid, invalid = Families.qbf_family n in
      List.iter
        (fun q ->
          let truth = Xpds.Qbf.valid q in
          let phi = Xpds.Qbf_encoding.encode q in
          let r, t = Table.time (fun () -> decide phi) in
          let sat =
            match r.Xpds.Sat.verdict with
            | Xpds.Sat.Sat _ -> Some true
            | Xpds.Sat.Unsat | Xpds.Sat.Unsat_bounded _ -> Some false
            | Xpds.Sat.Unknown _ -> None
          in
          Table.print_row columns
            [ string_of_int n;
              string_of_bool truth;
              string_of_int (Xpds.Measure.size_node phi);
              Table.verdict_string r.Xpds.Sat.verdict;
              (match sat with
              | Some b -> if b = truth then "yes" else "NO!"
              | None -> "-");
              string_of_int r.Xpds.Sat.stats.Xpds.Emptiness.n_states;
              Table.seconds t
            ])
        [ valid; invalid ])
    [ 1; 2 ]

(* --- E4: XPath(↓∗,=) via the Theorem-5 tiling reduction --- *)

let e4 ?(solve = true) () =
  let columns =
    [ ("instance", 14); ("eloise", 7); ("enc size", 8); ("tests", 6);
      ("verdict", 8); ("agree", 6); ("time", 9)
    ]
  in
  Table.print_header "E4: XPath(v*,=) via corridor tiling (Thm 5)" columns;
  let instances =
    [ ("example_win", Xpds.Tiling_game.example_win ());
      ("example_lose", Xpds.Tiling_game.example_lose ())
    ]
  in
  List.iter
    (fun (name, inst) ->
      let wins = Xpds.Tiling_game.eloise_wins inst in
      let phi = Xpds.Tiling.encode inst in
      if solve then begin
        (* Solving the encoding is ExpTime-hard by design; bound it by
           budgets and report honestly (never SAT on a losing instance
           is the checked property; the constructive validation is the
           strategy witness below). The data-free relaxation's closure
           takes 505 states and 1 229 transitions on both instances, so
           these budgets let it finish and a winning game's relaxation
           witness be lifted, while the general engine on a losing one
           stops on the state budget. *)
        let r, t =
          Table.time (fun () ->
              decide ~width:4 ~max_states:600 ~max_transitions:2_000 phi)
        in
        let sat =
          match r.Xpds.Sat.verdict with
          | Xpds.Sat.Sat _ -> Some true
          | Xpds.Sat.Unsat | Xpds.Sat.Unsat_bounded _ -> Some false
          | Xpds.Sat.Unknown _ -> None
        in
        Table.print_row columns
          [ name;
            string_of_bool wins;
            string_of_int (Xpds.Measure.size_node phi);
            string_of_int (Xpds.Measure.data_tests phi);
            Table.verdict_string r.Xpds.Sat.verdict;
            (match sat with
            | Some b -> if b = wins then "yes" else "NO!"
            | None -> "-");
            Table.seconds t
          ]
      end
      else
        Table.print_row columns
          [ name;
            string_of_bool wins;
            string_of_int (Xpds.Measure.size_node phi);
            string_of_int (Xpds.Measure.data_tests phi);
            "(skip)";
            "-";
            "-"
          ])
    instances;
  (* The feasible validation: the winning strategy's coding tree
     satisfies the encoding (checked through the reference semantics). *)
  List.iter
    (fun (name, inst) ->
      match Xpds.Tiling.strategy_witness inst with
      | Some w ->
        let ok, t =
          Table.time (fun () ->
              Xpds.Semantics.check w (Xpds.Tiling.encode inst))
        in
        Format.printf
          "%s: strategy witness (%d nodes) satisfies encoding: %b [%s]@."
          name (Xpds.Data_tree.size w) ok (Table.seconds t)
      | None -> Format.printf "%s: no witness (Abelard wins)@." name)
    instances;
  (* Encoding-size scaling (polynomiality of the reduction). *)
  Format.printf "encoding growth: ";
  List.iter
    (fun (n, s) ->
      let inst =
        {
          Xpds.Tiling_game.n;
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
      Format.printf "(n=%d,s=%d):%d " n s
        (Xpds.Measure.size_node (Xpds.Tiling.encode inst)))
    [ (2, 2); (2, 3); (4, 3); (4, 4); (6, 4); (6, 5) ];
  Format.printf "@."

(* --- E5: XPath(↓∗,↓,=) and regXPath(↓,=) — ExpTime rows --- *)

let e5 () =
  let columns =
    [ ("family", 22); ("variant", 8); ("fragment", 14); ("verdict", 8);
      ("states", 8); ("time", 9)
    ]
  in
  Table.print_header "E5: ExpTime rows — mixed axes and Kleene star"
    columns;
  let run name phi variant =
    let r, t = Table.time (fun () -> decide phi) in
    Table.print_row columns
      [ name;
        variant;
        Xpds.Fragment.name r.Xpds.Sat.fragment;
        Table.verdict_string r.Xpds.Sat.verdict;
        string_of_int r.Xpds.Sat.stats.Xpds.Emptiness.n_states;
        Table.seconds t
      ]
  in
  List.iter
    (fun n ->
      run
        (Printf.sprintf "mixed_axes n=%d" n)
        (Families.mixed_axes ~sat:true n)
        "sat";
      run
        (Printf.sprintf "mixed_axes n=%d" n)
        (Families.mixed_axes ~sat:false n)
        "unsat")
    [ 1; 2; 3 ];
  List.iter
    (fun k ->
      run
        (Printf.sprintf "root_data k=%d" k)
        (Families.root_data k) "sat")
    [ 1; 2; 3; 4 ];
  run "reg_alternation" (Families.reg_alternation ~sat:true ()) "sat";
  run "reg_alternation" (Families.reg_alternation ~sat:false ()) "unsat"

(* --- E6: XPath(↓∗,=)\ε — the PSpace fragment of Prop 4 --- *)

let e6 () =
  let columns =
    [ ("k", 4); ("variant", 8); ("fragment", 16); ("eps-free", 8);
      ("verdict", 8); ("time", 9)
    ]
  in
  Table.print_header "E6: XPath(v*,=)\\eps family (Prop 4)" columns;
  List.iter
    (fun k ->
      List.iter
        (fun sat ->
          let phi = Families.desc_data ~sat k in
          let features = Xpds.Fragment.features phi in
          let r, t = Table.time (fun () -> decide phi) in
          Table.print_row columns
            [ string_of_int k;
              (if sat then "sat" else "unsat");
              Xpds.Fragment.name r.Xpds.Sat.fragment;
              string_of_bool features.Xpds.Fragment.eps_free;
              Table.verdict_string r.Xpds.Sat.verdict;
              Table.seconds t
            ])
        [ true; false ])
    [ 1; 2; 3 ]

(* --- E7: Theorem 3 — the PTime translation, measured --- *)

let e7 () =
  let columns =
    [ ("size bucket", 12); ("samples", 8); ("avg |Q|", 8); ("avg |K|", 8);
      ("max |K|", 8); ("K/size", 7)
    ]
  in
  Table.print_header "E7: translation size (Thm 3 is PTime)" columns;
  let st = Random.State.make [| 20090629 |] in
  let gen = Gen_formula.gen ~state:st in
  let buckets = [ (1, 10); (11, 20); (21, 40); (41, 80) ] in
  List.iter
    (fun (lo, hi) ->
      let samples = ref [] in
      while List.length !samples < 40 do
        let phi = gen () in
        let size = Xpds.Measure.size_node phi in
        if size >= lo && size <= hi then samples := phi :: !samples
      done;
      let qs, ks, sizes =
        List.fold_left
          (fun (qs, ks, sizes) phi ->
            let m = Xpds.Translate.of_node phi in
            ( m.Xpds.Bip.q_card :: qs,
              m.Xpds.Bip.pf.Xpds.Pathfinder.n_states :: ks,
              Xpds.Measure.size_node phi :: sizes ))
          ([], [], []) !samples
      in
      let avg l =
        float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
      in
      Table.print_row columns
        [ Printf.sprintf "%d-%d" lo hi;
          string_of_int (List.length !samples);
          Printf.sprintf "%.1f" (avg qs);
          Printf.sprintf "%.1f" (avg ks);
          string_of_int (List.fold_left max 0 ks);
          Printf.sprintf "%.2f" (avg ks /. avg sizes)
        ])
    buckets

(* --- E8: the small-model property (paper §6) --- *)

let e8 () =
  let columns =
    [ ("family", 22); ("size", 6); ("height", 7); ("branch", 7);
      ("data", 6); ("shared", 7)
    ]
  in
  Table.print_header
    "E8: witness shape — polynomial branching, bounded sharing (§6)"
    columns;
  let inspect name phi =
    match (decide ~max_transitions:100_000 phi).Xpds.Sat.verdict with
    | Xpds.Sat.Sat w ->
      let shared =
        (* max number of data values shared by two disjoint subtrees *)
        let rec pairs = function
          | [] -> 0
          | t :: rest ->
            List.fold_left
              (fun acc t' ->
                max acc (List.length (Xpds.Data_tree.shared_data t t')))
              (pairs rest) rest
        in
        let all_forests =
          let acc = ref [] in
          Xpds.Data_tree.iter
            (fun _ t -> acc := Xpds.Data_tree.children t :: !acc)
            w;
          !acc
        in
        List.fold_left (fun acc forest -> max acc (pairs forest)) 0
          all_forests
      in
      Table.print_row columns
        [ name;
          string_of_int (Xpds.Measure.size_node phi);
          string_of_int (Xpds.Data_tree.height w);
          string_of_int (Xpds.Data_tree.branching w);
          string_of_int (List.length (Xpds.Data_tree.data_values w));
          string_of_int shared
        ]
    | _ -> Table.print_row columns [ name; "-"; "-"; "-"; "-"; "-" ]
  in
  List.iter
    (fun n -> inspect (Printf.sprintf "data_chain n=%d" n)
        (Families.data_chain ~sat:true n))
    [ 2; 3 ];
  List.iter
    (fun k -> inspect (Printf.sprintf "desc_data k=%d" k)
        (Families.desc_data ~sat:true k))
    [ 2; 3 ];
  List.iter
    (fun k -> inspect (Printf.sprintf "root_data k=%d" k)
        (Families.root_data k))
    [ 2; 4 ];
  inspect "reg_alternation" (Families.reg_alternation ~sat:true ())

(* --- E9: document types — exponential only in the counting constant --- *)

let e9 () =
  let columns =
    [ ("n (>= n bs)", 12); ("verdict", 8); ("states", 8); ("time", 9) ]
  in
  Table.print_header
    "E9: counting document types (Sec 4.1) — sweep of n0" columns;
  let labels = List.map Xpds.Label.of_string [ "a"; "b" ] in
  List.iter
    (fun n ->
      let schema =
        [ { Xpds.Doctype.parent = "a"; at_least = [ (n, "b") ]; forbidden = [] } ]
      in
      let phi = Xpds.Parser.node_of_string_exn "<desc[a & <down[b]>]>" in
      let m = Xpds.Translate.of_node_somewhere ~labels phi in
      let restricted = Xpds.Doctype.restrict m ~labels schema in
      let config =
        { Xpds.Emptiness.default_config with max_states = solver_budget }
      in
      let { Xpds.Emptiness.outcome; stats; _ }, t =
        Table.time (fun () -> Xpds.Emptiness.check ~config restricted)
      in
      Table.print_row columns
        [ string_of_int n;
          (match outcome with
          | Xpds.Emptiness.Nonempty _ -> "SAT"
          | Xpds.Emptiness.Empty -> "UNSAT"
          | Xpds.Emptiness.Bounded_empty -> "UNSAT*"
          | Xpds.Emptiness.Resource_limit _ -> "unknown");
          string_of_int stats.Xpds.Emptiness.n_states;
          Table.seconds t
        ])
    [ 1; 2; 3; 4; 5 ]

(* --- E10: containment and equivalence --- *)

let e10 () =
  let columns = [ ("instance", 38); ("answer", 10); ("time", 9) ] in
  Table.print_header "E10: inclusion / equivalence (Sec 4.1)" columns;
  let parse = Xpds.Parser.node_of_string_exn in
  List.iter
    (fun (name, phi, psi) ->
      let answer, t =
        Table.time (fun () ->
            Xpds.Containment.contained (parse phi) (parse psi))
      in
      Table.print_row columns
        [ name;
          (match answer with
          | Xpds.Containment.Holds -> "holds"
          | Xpds.Containment.Holds_bounded _ -> "holds*"
          | Xpds.Containment.Fails _ -> "fails"
          | Xpds.Containment.Unknown _ -> "unknown");
          Table.seconds t
        ])
    [ ("desc/desc <= desc", "<desc/desc[a]>", "<desc[a]>");
      ("desc <= desc/desc", "<desc[a]>", "<desc/desc[a]>");
      ("child <= desc", "<down[a]>", "<desc[a]>");
      ("desc <= child", "<desc[a]>", "<down[a]>");
      ("neq-pair implies exist", "down[a] != down[a]", "<down[a]>");
      ("exist implies neq-pair", "<down[a]>", "down[a] != down[a]");
      ("eq-eps vs eq-desc", "eps = down[a]", "eps = desc[a]");
      ("star unroll", "<(down[a])*/down[a]>", "<down[a]/(down[a])*>")
    ]

(* --- E11: attrXPath over XML (Appendix A) --- *)

let e11 () =
  let columns =
    [ ("query", 26); ("doc sat", 8); ("translated", 10); ("SAT", 8);
      ("time", 9)
    ]
  in
  Table.print_header "E11: attrXPath on multi-attribute XML (Appendix A)"
    columns;
  let doc =
    Xpds.Xml_doc.parse_exn
      {|<lib><book ID="1"><ref ID="2"/></book><book ID="2"><ref ID="2"/></book></lib>|}
  in
  let tree = Xpds.Xml_doc.to_data_tree doc in
  let open Xpds.Attr_xpath in
  let queries =
    [ ("self-referencing book",
       Exists
         (Filter
            ( Child,
              And
                ( Tag "book",
                  Cmp (Self, "ID", Eq, Filter (Child, Tag "ref"), "ID") ) )));
      ("cross-referencing book",
       Exists
         (Filter
            ( Child,
              And
                ( Tag "book",
                  Cmp (Self, "ID", Neq, Filter (Child, Tag "ref"), "ID") ) )));
      ("ref to a descendant book",
       Cmp
         ( Filter (Descendant, Tag "ref"), "ID", Eq,
           Filter (Descendant, Tag "book"), "ID" ))
    ]
  in
  List.iter
    (fun (name, q) ->
      let on_doc = check_doc doc q in
      let translated = Xpds.Semantics.check tree (tr q) in
      let formula = satisfiability_formula q in
      let r, t = Table.time (fun () -> decide formula) in
      Table.print_row columns
        [ name;
          string_of_bool on_doc;
          (if translated = on_doc then "agrees" else "DISAGREES");
          Table.verdict_string r.Xpds.Sat.verdict;
          Table.seconds t
        ])
    queries

(* --- E12: emptiness procedure vs brute-force model search --- *)

let e12 () =
  let columns =
    [ ("family", 20); ("answer", 8); ("emptiness", 10); ("brute", 10);
      ("speedup", 8)
    ]
  in
  Table.print_header "E12: Thm-4 procedure vs bounded model search"
    columns;
  let somewhere phi = Exists (Filter (B.desc, phi)) in
  List.iter
    (fun (name, phi) ->
      let r, t_solver = Table.time (fun () -> decide phi) in
      let oracle, t_brute =
        Table.time (fun () ->
            Xpds.Model_search.search ~max_height:3 ~max_width:2 ~max_data:2
              ~max_trees:500_000 (somewhere phi))
      in
      let answer =
        match (r.Xpds.Sat.verdict, oracle) with
        | Xpds.Sat.Sat _, Xpds.Model_search.Sat _ -> "both sat"
        | (Xpds.Sat.Unsat | Xpds.Sat.Unsat_bounded _),
          (Xpds.Model_search.Unsat_within_bounds _ | Xpds.Model_search.Budget_exhausted _) ->
          "both uns"
        | Xpds.Sat.Sat _, _ -> "sat/-"
        | _, Xpds.Model_search.Sat _ -> "DISAGREE"
        | _ -> "-"
      in
      Table.print_row columns
        [ name;
          answer;
          Table.seconds t_solver;
          Table.seconds t_brute;
          Printf.sprintf "%.1fx" (t_brute /. max 1e-9 t_solver)
        ])
    [ ("data_chain 2 sat", Families.data_chain ~sat:true 2);
      ("data_chain 2 unsat", Families.data_chain ~sat:false 2);
      ("desc_data 2 sat", Families.desc_data ~sat:true 2);
      ("child_chain 2 unsat", Families.child_chain ~sat:false 2);
      ("root_data 3", Families.root_data 3)
    ]

(* --- E13: ablation of the practical completeness knobs --- *)

let e13 () =
  let columns =
    [ ("knob", 22); ("value", 8); ("verdict", 8); ("states", 8);
      ("mergings", 9); ("time", 9)
    ]
  in
  Table.print_header
    "E13: ablation — width / merge budget / dup cap (DESIGN 3b.7)" columns;
  let phi = Families.desc_data ~sat:true 2 in
  (* The general engine alone, as [Sat.general_search] sets it up:
     [Sat.decide] lifts this family's relaxation witness before any of
     these bounds is read. *)
  let run knob value ~width ~merge_budget ~dup_cap ~t0 =
    let a, t =
      Table.time (fun () ->
          let options =
            Xpds.Sat.Options.(
              default |> with_width width |> with_merge_budget merge_budget
              |> with_dup_cap dup_cap |> with_t0 t0
              |> with_max_states 20_000 |> with_max_transitions 150_000)
          in
          let m, config = Xpds.Sat.general_search ~options phi in
          Xpds.Emptiness.check ~config m)
    in
    Table.print_row columns
      [ knob;
        value;
        (match a.Xpds.Emptiness.outcome with
        | Xpds.Emptiness.Nonempty _ -> "SAT"
        | Xpds.Emptiness.Empty -> "UNSAT"
        | Xpds.Emptiness.Bounded_empty -> "UNSAT*"
        | Xpds.Emptiness.Resource_limit _ -> "unknown");
        string_of_int a.Xpds.Emptiness.stats.Xpds.Emptiness.n_states;
        string_of_int a.Xpds.Emptiness.stats.Xpds.Emptiness.n_mergings;
        Table.seconds t
      ]
  in
  List.iter
    (fun w ->
      run "width" (string_of_int w) ~width:w ~merge_budget:(Some 5)
        ~dup_cap:(Some 2) ~t0:(Some 6))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun b ->
      run "merge budget"
        (match b with Some b -> string_of_int b | None -> "paper")
        ~width:2 ~merge_budget:b ~dup_cap:(Some 2) ~t0:(Some 6))
    [ Some 1; Some 3; Some 5; None ];
  List.iter
    (fun c ->
      run "dup cap"
        (match c with Some c -> string_of_int c | None -> "paper")
        ~width:2 ~merge_budget:(Some 5) ~dup_cap:c ~t0:(Some 6))
    [ Some 1; Some 2; None ];
  List.iter
    (fun t0 ->
      run "t0"
        (match t0 with Some t -> string_of_int t | None -> "paper")
        ~width:2 ~merge_budget:(Some 5) ~dup_cap:(Some 2) ~t0)
    [ Some 2; Some 4; Some 6; None ]

let all =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", fun () -> e4 ());
    ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9);
    ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13)
  ]
