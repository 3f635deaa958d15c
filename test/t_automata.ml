(* Tests for the automata layer: bit vectors, NFAs, pathfinder, BIP runs,
   and the Theorem-3 translation against the reference semantics. *)

open Xpds_automata
module Ast = Xpds_xpath.Ast
module B = Xpds_xpath.Build
module Semantics = Xpds_xpath.Semantics
module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label

let parse s = Xpds_xpath.Parser.node_of_string_exn s
let parse_p s = Xpds_xpath.Parser.path_of_string_exn s

(* --- Bitv --- *)

let test_bitv_basics () =
  let s = Bitv.of_list 100 [ 0; 63; 64; 99 ] in
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 99 ] (Bitv.elements s);
  Alcotest.(check int) "cardinal" 4 (Bitv.cardinal s);
  Alcotest.(check bool) "mem" true (Bitv.mem 64 s);
  Alcotest.(check bool) "not mem" false (Bitv.mem 65 s);
  let t = Bitv.of_list 100 [ 63; 65 ] in
  Alcotest.(check (list int)) "union" [ 0; 63; 64; 65; 99 ]
    (Bitv.elements (Bitv.union s t));
  Alcotest.(check (list int)) "inter" [ 63 ] (Bitv.elements (Bitv.inter s t));
  Alcotest.(check (list int)) "diff" [ 0; 64; 99 ]
    (Bitv.elements (Bitv.diff s t));
  Alcotest.(check bool) "subset" true (Bitv.subset (Bitv.inter s t) s);
  Alcotest.(check bool) "equal after ops" true
    (Bitv.equal s (Bitv.remove 65 (Bitv.add 65 s)));
  Alcotest.(check int) "full cardinal" 100 (Bitv.cardinal (Bitv.full 100))

let prop_bitv_vs_stdlib =
  let module IS = Set.Make (Int) in
  Gen_helpers.qtest ~count:300 "bitv agrees with Set.Make(Int)"
    QCheck.(pair (list (int_bound 69)) (list (int_bound 69)))
    (fun (xs, ys) ->
      let bx = Bitv.of_list 70 xs and by = Bitv.of_list 70 ys in
      let sx = IS.of_list xs and sy = IS.of_list ys in
      Bitv.elements (Bitv.union bx by) = IS.elements (IS.union sx sy)
      && Bitv.elements (Bitv.inter bx by) = IS.elements (IS.inter sx sy)
      && Bitv.elements (Bitv.diff bx by) = IS.elements (IS.diff sx sy)
      && Bitv.subset bx by = IS.subset sx sy
      && Bitv.cardinal bx = IS.cardinal sx)

(* --- NFA --- *)

let lab s = B.lab s

let accepts_word nfa letters =
  Nfa.accepts nfa
    (List.map
       (fun l other ->
         match (l, other) with
         | `Down, Nfa.Down -> true
         | `Test s, Nfa.Test phi -> Ast.equal_node phi (lab s)
         | _ -> false)
       letters)

let test_nfa_words () =
  (* α = down[a]/down[b] — word: ↓ test(a) ↓ test(b). *)
  let nfa = Nfa.of_path (parse_p "down[a]/down[b]") in
  Alcotest.(check bool) "accepts its word" true
    (accepts_word nfa [ `Down; `Test "a"; `Down; `Test "b" ]);
  Alcotest.(check bool) "rejects prefix" false
    (accepts_word nfa [ `Down; `Test "a" ]);
  Alcotest.(check bool) "rejects swapped" false
    (accepts_word nfa [ `Down; `Test "b"; `Down; `Test "a" ]);
  (* desc = Down*. *)
  let d = Nfa.of_path (parse_p "desc") in
  Alcotest.(check bool) "desc eps" true (accepts_word d []);
  Alcotest.(check bool) "desc many" true
    (accepts_word d [ `Down; `Down; `Down ]);
  (* star of a sequence *)
  let s = Nfa.of_path (parse_p "(down[a]/down[b])*") in
  Alcotest.(check bool) "star zero" true (accepts_word s []);
  Alcotest.(check bool) "star twice" true
    (accepts_word s
       [ `Down; `Test "a"; `Down; `Test "b"; `Down; `Test "a"; `Down;
         `Test "b"
       ]);
  Alcotest.(check bool) "star partial" false
    (accepts_word s [ `Down; `Test "a" ]);
  (* union and guard *)
  let u = Nfa.of_path (parse_p "[a]down|down/down") in
  Alcotest.(check bool) "guard branch" true
    (accepts_word u [ `Test "a"; `Down ]);
  Alcotest.(check bool) "two-step branch" true
    (accepts_word u [ `Down; `Down ]);
  Alcotest.(check bool) "neither" false (accepts_word u [ `Down ])

let test_nfa_reverse () =
  let nfa = Nfa.of_path (parse_p "down[a]/down[b]") in
  let rev = Nfa.reverse nfa in
  Alcotest.(check bool) "reverse accepts mirror" true
    (accepts_word rev [ `Test "b"; `Down; `Test "a"; `Down ]);
  Alcotest.(check bool) "reverse rejects original" false
    (accepts_word rev [ `Down; `Test "a"; `Down; `Test "b" ])

(* --- Pathfinder closure --- *)

let test_pathfinder_closure () =
  (* Two states, reading q0 moves 0 -> 1, reading q1 moves 1 -> 0. *)
  let pf =
    Pathfinder.create ~n_states:3 ~initial:0 ~q_card:2
      ~up:[ (1, 2) ]
      ~read:[ (0, 0, 1); (1, 1, 0) ]
  in
  let cl label ks = Bitv.elements (Pathfinder.closure pf ~label ks) in
  Alcotest.(check (list int)) "closure with q0" [ 0; 1 ]
    (cl (Bitv.of_list 2 [ 0 ]) (Bitv.of_list 3 [ 0 ]));
  Alcotest.(check (list int)) "closure with both" [ 0; 1 ]
    (cl (Bitv.full 2) (Bitv.of_list 3 [ 0 ]));
  Alcotest.(check (list int)) "closure empty label" [ 0 ]
    (cl (Bitv.empty 2) (Bitv.of_list 3 [ 0 ]));
  Alcotest.(check (list int)) "step up" [ 2 ]
    (Bitv.elements (Pathfinder.step_up pf (Bitv.of_list 3 [ 1 ])))

(* --- Example 2/3 of the paper: the (ab)+ BIP automaton --- *)

(* P = ⟨{kI,k1,k1d,k2,k2d,k3}, kI, {q1,q2,qf}, ν⟩ recognizing (q1q2)+
   read bottom-up, exactly as in Example 2. States: kI=0 k1=1 k1d=2 k2=3
   k2d=4 k3=5; letters: q1=0 q2=1 qf=2. *)
let example2_pathfinder () =
  Pathfinder.create ~n_states:6 ~initial:0 ~q_card:3
    ~up:[ (3, 4); (1, 2); (5, 5) ]
    ~read:[ (1, 0, 3); (0, 4, 1); (1, 2, 3); (0, 0, 5) ]

let example3_bip () =
  let pf = example2_pathfinder () in
  let mu =
    [| Bip.FLab (Label.of_string "a"); (* q1 *)
       Bip.FLab (Label.of_string "b"); (* q2 *)
       (* qf: ∃(k1d,k1d)≠ ∧ ¬∃(kI,k3)≠ *)
       Bip.FAnd
         ( Bip.FEx (2, 2, Ast.Neq),
           Bip.FNot (Bip.FEx (0, 5, Ast.Neq)) )
    |]
  in
  Bip.create
    ~labels:(List.map Label.of_string [ "a"; "b" ])
    ~mu
    ~final:(Bitv.singleton 3 2)
    ~pf

let test_example3_accepts_fig1 () =
  let m = example3_bip () in
  Alcotest.(check bool) "accepts the Example 1 tree" true
    (Bip_run.accepts m (Data_tree.example_fig1 ()))

let test_example3_rejects () =
  let m = example3_bip () in
  (* Same (ab)+ structure but equal data at depth 2: rejected. *)
  let t =
    Data_tree.node "a" 1
      [ Data_tree.node "a" 1 [ Data_tree.node "b" 2 []; Data_tree.node "b" 2 [] ] ]
  in
  Alcotest.(check bool) "equal data rejected" false (Bip_run.accepts m t);
  (* An a-node with a datum different from the root violates
     ¬(ε ≠ ↓∗[a]). *)
  let t2 =
    Data_tree.node "a" 1
      [ Data_tree.node "a" 9 [ Data_tree.node "b" 2 []; Data_tree.node "b" 3 [] ] ]
  in
  Alcotest.(check bool) "a with fresh datum rejected" false
    (Bip_run.accepts m t2)

let test_example3_equals_xpath () =
  (* Example 3's automaton corresponds to
     (↓[a]↓[b])+ ≠ (↓[a]↓[b])+ ∧ ¬ε ≠ ↓∗[a]. *)
  let abplus = "down[a]/down[b]/(down[a]/down[b])*" in
  let phi =
    parse
      (Printf.sprintf "%s != %s & ~(eps != desc[a])" abplus abplus)
  in
  let m = example3_bip () in
  let trees =
    Data_tree.example_fig1 ()
    :: List.of_seq
         (Xpds_datatree.Tree_gen.enumerate
            ~labels:(List.map Label.of_string [ "a"; "b" ])
            ~max_height:3 ~max_width:2 ~max_data:2)
  in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "agree on %s" (Data_tree.to_string t))
        (Semantics.check t phi) (Bip_run.accepts m t))
    trees

(* --- Theorem 3 translation --- *)

let test_translate_paper_example () =
  let phi = parse "<desc[b & down[b] != down[b]]>" in
  let m = Translate.of_node ~labels:[ Label.of_string "a" ] phi in
  Alcotest.(check bool) "accepts example 1" true
    (Bip_run.accepts m (Data_tree.example_fig1 ()))

let test_translate_bounded_interleaving () =
  let phi = parse "<desc[b & down[b] != down[b]]> & eps = desc[a]" in
  let m = Translate.of_node phi in
  Alcotest.(check bool) "translated automata are stratified" true
    (Bip.has_bounded_interleaving m)

let gen_labels = List.map Label.of_string Gen_helpers.default_labels

let prop_translate_agrees_with_semantics =
  let arb =
    QCheck.pair Gen_helpers.arb_node
      (Gen_helpers.arb_tree ~max_height:4 ~max_width:3 ~max_data:3 ())
  in
  Gen_helpers.qtest ~count:400 "Theorem 3: BIP run = reference semantics"
    arb
    (fun (phi, t) ->
      let m = Translate.of_node ~labels:gen_labels phi in
      Bip_run.accepts m t = Semantics.check t phi)

let prop_translate_somewhere =
  let arb =
    QCheck.pair Gen_helpers.arb_node
      (Gen_helpers.arb_tree ~max_height:3 ~max_width:2 ~max_data:2 ())
  in
  Gen_helpers.qtest ~count:200 "somewhere-translation = Definition 1" arb
    (fun (phi, t) ->
      let m =
        Translate.of_node_somewhere ~labels:gen_labels phi
      in
      Bip_run.accepts m t = Semantics.check_somewhere t phi)

let prop_translate_polynomial =
  (* Theorem 3 is a PTime translation: sizes stay polynomial (we check a
     generous cubic bound on these small random formulas). *)
  Gen_helpers.qtest ~count:200 "translation size is polynomial"
    Gen_helpers.arb_node
    (fun phi ->
      let m = Translate.of_node phi in
      let n = Xpds_xpath.Measure.size_node phi in
      m.Bip.q_card <= n + 1
      && m.Bip.pf.Pathfinder.n_states <= (10 * n * n) + 10)

let prop_subtree_duplication =
  (* Prop 2, step 1: BIP languages are closed under duplicating a
     subtree. We duplicate the last child of the root. *)
  let arb =
    QCheck.pair Gen_helpers.arb_node
      (Gen_helpers.arb_tree ~max_height:3 ~max_width:2 ~max_data:2 ())
  in
  Gen_helpers.qtest ~count:200 "closure under subtree duplication" arb
    (fun (phi, t) ->
      match List.rev (Data_tree.children t) with
      | [] -> true
      | last :: rest ->
        let dup =
          Data_tree.make (Data_tree.label t) (Data_tree.data t)
            (List.rev (last :: last :: rest))
        in
        let m = Translate.of_node ~labels:gen_labels phi in
        Bip_run.accepts m t = Bip_run.accepts m dup)

(* Appendix B's remark: the property "there is a chain of equal data down
   to a b" (A ::= ε=↓[A] | b) is expressible by a BIP with unbounded
   interleaving. Build it by hand and check it runs correctly. *)
let chain_bip () =
  (* Q = {qA}; K: kI=0, k_b... encode: μ(qA) = b ∨ ∃(k_self, k_chain)=
     where k_self retrieves the root datum and k_chain retrieves the
     datum of a child carrying qA.
     k_self: kI --read qA?-- we need a state reached only at the root
     carrying its datum: kI then stop: use k_self = state after reading
     q_top... Q = {qA, qT}: μ(qT)=true.
     k_chain: kI --read qA--> k1 --up--> k2 (datum of a qA child).
     k_self: kI --read qT--> k3 (datum of the node itself). *)
  let pf =
    Pathfinder.create ~n_states:4 ~initial:0 ~q_card:2
      ~up:[ (1, 2) ]
      ~read:[ (0, 0, 1); (1, 0, 3) ]
  in
  let mu =
    [| Bip.FOr
         (Bip.FLab (Label.of_string "b"), Bip.FEx (3, 2, Xpds_xpath.Ast.Eq));
       Bip.FTrue
    |]
  in
  Bip.create
    ~labels:(List.map Label.of_string [ "a"; "b" ])
    ~mu
    ~final:(Bitv.singleton 2 0)
    ~pf

let test_chain_bip () =
  let m = chain_bip () in
  Alcotest.(check bool) "chain automaton is not bounded-interleaving" false
    (Bip.has_bounded_interleaving m);
  let chain_ok =
    Data_tree.node "a" 7 [ Data_tree.node "a" 7 [ Data_tree.node "b" 7 [] ] ]
  in
  let chain_broken =
    Data_tree.node "a" 7 [ Data_tree.node "a" 8 [ Data_tree.node "b" 8 [] ] ]
  in
  let plain_b = Data_tree.node "b" 0 [] in
  Alcotest.(check bool) "equal-data chain accepted" true
    (Bip_run.accepts m chain_ok);
  Alcotest.(check bool) "broken chain rejected" false
    (Bip_run.accepts m chain_broken);
  Alcotest.(check bool) "b accepted" true (Bip_run.accepts m plain_b)

(* One state, one pathfinder move that reads it: μ(q0) looks at whether
   the node's own datum is retrieved by reading q0 at that very node, so
   the only candidate labellings are ∅ and {q0}. [negated] makes q0 hold
   iff it does not (no consistent labelling); otherwise both are
   consistent. *)
let self_reading_bip ~negated =
  let pf =
    Pathfinder.create ~n_states:2 ~initial:0 ~q_card:1 ~up:[]
      ~read:[ (0, 0, 1) ]
  in
  let ex = Bip.FEx (1, 1, Xpds_xpath.Ast.Eq) in
  Bip.create
    ~labels:[ Label.of_string "a" ]
    ~mu:[| (if negated then Bip.FNot ex else ex) |]
    ~final:(Bitv.singleton 1 0)
    ~pf

let test_cyclic_outcomes () =
  let leaf = Data_tree.node "a" 1 [] in
  (match Bip_run.run (self_reading_bip ~negated:true) leaf with
  | _ -> Alcotest.fail "q0 <-> not q0 must have no run"
  | exception Bip_run.No_run _ -> ());
  match Bip_run.run (self_reading_bip ~negated:false) leaf with
  | _ -> Alcotest.fail "q0 <-> q0 must have two runs"
  | exception Bip_run.Ambiguous_run _ -> ()

(* The whole run of the chain BIP, node by node: λ(n) and Reach(d). *)
let rec show_run (info : Bip_run.node_info) =
  let ints s = String.concat "," (List.map string_of_int (Bitv.elements s)) in
  Printf.sprintf "{%s|%s|%s}" (ints info.Bip_run.states)
    (String.concat ";"
       (List.map
          (fun (d, ks) -> Printf.sprintf "%d:%s" d (ints ks))
          info.Bip_run.reach))
    (String.concat "" (List.map show_run info.Bip_run.info_children))

let test_chain_run () =
  let m = chain_bip () in
  let run t = show_run (Bip_run.run m t) in
  Alcotest.(check string) "equal-data chain"
    "{0,1|5:2;7:0,1,2,3|{0,1|7:0,1,2,3|{0,1|7:0,1,3|}}{0,1|5:0,1,3|}}"
    (run
       (Data_tree.node "a" 7
          [ Data_tree.node "a" 7 [ Data_tree.node "b" 7 [] ];
            Data_tree.node "b" 5 []
          ]));
  Alcotest.(check string) "broken chain"
    "{1|7:0,3;8:2|{0,1|8:0,1,2,3|{0,1|8:0,1,3|}{1|8:0,3|}}}"
    (run
       (Data_tree.node "a" 7
          [ Data_tree.node "a" 8
              [ Data_tree.node "b" 8 []; Data_tree.node "a" 8 [] ]
          ]))

(* --- Appendix B: back-translation BIP -> regXPath(v,=) --- *)

let test_back_translation_example () =
  (* Round trip a concrete formula through the automaton and back. *)
  let phi = parse "<desc[b & down[b] != down[b]]>" in
  let m = Translate.of_node ~labels:gen_labels phi in
  let phi' = Interleaving.to_node m in
  let trees =
    Data_tree.example_fig1 ()
    :: List.of_seq
         (Xpds_datatree.Tree_gen.enumerate ~labels:gen_labels ~max_height:3
            ~max_width:2 ~max_data:2)
  in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "round trip on %s" (Data_tree.to_string t))
        (Semantics.check t phi)
        (Semantics.check t phi'))
    trees

let prop_back_translation =
  let arb =
    QCheck.pair
      (Gen_helpers.arb_node_cfg
         { Gen_helpers.full_cfg with star = false })
      (Gen_helpers.arb_tree ~max_height:3 ~max_width:2 ~max_data:2 ())
  in
  Gen_helpers.qtest ~count:100 "Prop 6: BIP -> regXPath round trip" arb
    (fun (phi, t) ->
      let m = Translate.of_node ~labels:gen_labels phi in
      QCheck.assume (Bip.has_bounded_interleaving m);
      (* State elimination can blow up on large pathfinders; keep the
         round trip to sizes where the regenerated formula stays
         evaluable. *)
      QCheck.assume (m.Bip.pf.Xpds_automata.Pathfinder.n_states <= 22);
      let phi' = Interleaving.to_node m in
      Semantics.check t phi = Semantics.check t phi')

let test_back_translation_rejects_chain () =
  match Interleaving.to_node (chain_bip ()) with
  | _ -> Alcotest.fail "chain BIP must be rejected (Def. 4 fails)"
  | exception Interleaving.Unbounded_interleaving -> ()

(* --- intersection --- *)

let prop_intersection =
  let arb =
    QCheck.triple Gen_helpers.arb_node Gen_helpers.arb_node
      (Gen_helpers.arb_tree ~max_height:3 ~max_width:2 ~max_data:2 ())
  in
  Gen_helpers.qtest ~count:150 "intersection = conjunction of languages"
    arb
    (fun (phi, psi, t) ->
      let m1 = Translate.of_node ~labels:gen_labels phi in
      let m2 = Translate.of_node ~labels:gen_labels psi in
      let m = Bip.intersect m1 m2 in
      Bip_run.accepts m t
      = (Bip_run.accepts m1 t && Bip_run.accepts m2 t))

let test_counting_atoms () =
  (* μ(q0) = a ∧ #q1 ≥ 2 ∧ #q2 = 0; q1 = b-child, q2 = c-child. *)
  let pf =
    Pathfinder.create ~n_states:1 ~initial:0 ~q_card:3 ~up:[] ~read:[]
  in
  let mu =
    [| Bip.FAnd
         ( Bip.FLab (Label.of_string "a"),
           Bip.FAnd (Bip.FCountGe (1, 2), Bip.FCountZero 2) );
       Bip.FLab (Label.of_string "b");
       Bip.FLab (Label.of_string "c")
    |]
  in
  let m =
    Bip.create
      ~labels:(List.map Label.of_string [ "a"; "b"; "c" ])
      ~mu
      ~final:(Bitv.singleton 3 0)
      ~pf
  in
  let mk children = Data_tree.node "a" 0 children in
  let b d = Data_tree.node "b" d [] and c d = Data_tree.node "c" d [] in
  Alcotest.(check bool) "two bs" true (Bip_run.accepts m (mk [ b 1; b 2 ]));
  Alcotest.(check bool) "one b" false (Bip_run.accepts m (mk [ b 1 ]));
  Alcotest.(check bool) "c forbidden" false
    (Bip_run.accepts m (mk [ b 1; b 2; c 3 ]));
  Alcotest.(check int) "max_count" 2 (Bip.max_count m)

let test_count_polarity () =
  let pf =
    Pathfinder.create ~n_states:1 ~initial:0 ~q_card:1 ~up:[] ~read:[]
  in
  match
    Bip.create
      ~labels:[ Label.of_string "a" ]
      ~mu:[| Bip.FNot (Bip.FCountGe (0, 1)) |]
      ~final:(Bitv.singleton 1 0)
      ~pf
  with
  | _ -> Alcotest.fail "negated #q>=n must be rejected"
  | exception Bip.Ill_formed _ -> ()

(* --- cached dependency analysis --- *)

(* The definitions [Bip.create] used to recompute on every call: the
   same-node dependency sets and Tarjan's SCCs, dependencies first. The
   fields [Bip.create] fills once must agree with them. *)
let ref_dependencies m =
  let into = Bip.reads_into m in
  Array.map
    (Bip.fold_form
       (fun acc atom ->
         match atom with
         | Bip.FEx (k1, k2, _) ->
           Bitv.union acc (Bitv.union into.(k1) into.(k2))
         | _ -> acc)
       (Bitv.empty m.Bip.q_card))
    m.Bip.mu

let ref_sccs m =
  let deps = ref_dependencies m in
  let n = m.Bip.q_card in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Bitv.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      deps.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.rev !components

let analyses_agree m =
  let deps = Bip.dependencies m and expected = ref_dependencies m in
  Array.length deps = Array.length expected
  && Array.for_all2 Bitv.equal deps expected
  && Bip.sccs m = ref_sccs m

let test_cached_analyses_cyclic () =
  Alcotest.(check bool) "chain BIP" true (analyses_agree (chain_bip ()))

let prop_cached_analyses =
  let doctype =
    [ { Doctype.parent = "a"; at_least = [ (2, "b") ]; forbidden = [ "c" ] } ]
  in
  Gen_helpers.qtest ~count:200
    "cached dependencies/SCCs = their definition"
    (QCheck.pair Gen_helpers.arb_node Gen_helpers.arb_node)
    (fun (phi, psi) ->
      let m1 = Translate.of_node ~labels:gen_labels phi in
      let m2 =
        Translate.of_node_somewhere ~labels:gen_labels psi
      in
      List.for_all analyses_agree
        [ m1;
          m2;
          Bip.intersect m1 m2;
          Doctype.restrict m2 ~labels:m2.Bip.labels doctype
        ])

(* --- pinned translations ---

   MD5 digests of [Bip.pp] (and of Σ, by name) for fixed formulas. The
   translation's state numbering, the order of each pathfinder
   transition list and Σ are observable downstream (exploration order,
   stats, witnesses), so a rewrite of [Translate], [Nfa], [Pathfinder]
   or [Bip.create] must keep every digest. *)

let digest_of_bip m =
  let sigma =
    List.sort String.compare (List.map Label.to_string m.Bip.labels)
  in
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a|%s" Bip.pp m (String.concat "," sigma)))

let pinned_doctype =
  [ { Doctype.parent = "a"; at_least = [ (2, "b") ]; forbidden = [ "c" ] };
    { Doctype.parent = "b"; at_least = []; forbidden = [ "a" ] }
  ]

let pinned_automata () =
  let node s = Translate.of_node (parse s) in
  let somewhere ?labels s =
    Translate.of_node_somewhere ?labels (parse s)
  in
  let xy = List.map Label.of_string [ "x"; "y" ] in
  [ ("label", node "a");
    ("true", node "true");
    ("self", node "<eps>");
    ("child", node "<down>");
    ("descendant", node "<desc>");
    ("seq filter", node "<down/down[b]>");
    ("union", node "<down[a] | desc[b]>");
    ("guard", node "<[a]down/desc>");
    ("star", node "<(down[a]/down)*>");
    ("star union filter", node "<(down | desc[c])*[a]>");
    ("eq", node "down[a] = desc[b]");
    ("eq self", node "eps = down/down[a]");
    ("neq", node "desc[b] != down/down");
    ("star eq", node "down* = desc");
    ("boolean", node "~(a & <down[b]>) | c");
    ("paper example", node "<desc[b & down[b] != down[b]]>");
    ("mixed", node "a & ~<down[a]> & (down[b] = down[c] | false)");
    ("nested tests", node "<down[<down[a]>]/desc[eps != down]>");
    ("shared subformulas", node "<desc[a]> & (<desc[a]> | down[a] = down[a])");
    ( "extra labels",
      Translate.of_node ~labels:xy (parse "<down[a]> & ~x") );
    ("somewhere", somewhere "down[a] != down[a]");
    ( "somewhere labels",
      somewhere ~labels:xy "<(down/down)*[b]> & ~c & eps = [b]desc" );
    ( "intersect",
      Bip.intersect (node "<down[a]>") (somewhere "down = desc[b]") );
    ( "doctype",
      Doctype.restrict (somewhere "<down[b]> & ~(eps = down)")
        ~labels:(List.map Label.of_string [ "a"; "b"; "c" ])
        pinned_doctype )
  ]

let pinned_digests =
  [ ("label", "31df44b684c534f7ebc35425b77de633");
    ("true", "a66fb65eca19cb2b764578e73407298a");
    ("self", "7fe2f06a29d06581721222f508cc50c5");
    ("child", "2a27518dc078c175326eea30c0ed290e");
    ("descendant", "9f36a2cdfb186d9f8d43e980b136ad31");
    ("seq filter", "48752a3e7e7d1016c1f5d9ca15fd6e05");
    ("union", "4cca511b8e33f575b08a3947aed067e6");
    ("guard", "32cad59e9aedad734cea020e62ae2d04");
    ("star", "a18f8b9f95f3ff561ea1dc5a8cbbe680");
    ("star union filter", "19d3201b4eb5576687828b9479211891");
    ("eq", "1caef9f5a604f7e7cb0a706ac5a9bdf2");
    ("eq self", "f9cfdaa01de4d8513a1d8b4b12b36a38");
    ("neq", "fbf966869f24233691daf07b9971dbff");
    ("star eq", "ae93755f3a816220da8626c03f89cd22");
    ("boolean", "8196bd75a8ba793403001a1e034f85ab");
    ("paper example", "39962cb49d121f5281bff6e5c2efe8a1");
    ("mixed", "a714aa2edc3420c234793cab076214cd");
    ("nested tests", "aa942401cc9eba4094de19c336e00cf9");
    ("shared subformulas", "5e0891b098bf786db6b2e26650c15f77");
    ("extra labels", "d499dc252c9ccabb3bd0731bae7cd95a");
    ("somewhere", "378cbfed2e98b3c4532c5d6b3bfaf41f");
    ("somewhere labels", "943f07dfe1ea3914e9a8007ccf43ec45");
    ("intersect", "13b6d968df8ebedb8e11d69b0fbe91ed");
    ("doctype", "9adca65fa8804c7123615a270f1e7e38")
  ]

let test_pinned_translations () =
  Alcotest.(check (list (pair string string)))
    "Bip.pp digests" pinned_digests
    (List.map (fun (name, m) -> (name, digest_of_bip m)) (pinned_automata ()))

let suite =
  ( "automata",
    [ Alcotest.test_case "bitv basics" `Quick test_bitv_basics;
      prop_bitv_vs_stdlib;
      Alcotest.test_case "nfa word language" `Quick test_nfa_words;
      Alcotest.test_case "nfa reverse" `Quick test_nfa_reverse;
      Alcotest.test_case "pathfinder closure" `Quick
        test_pathfinder_closure;
      Alcotest.test_case "paper example 3 accepts" `Quick
        test_example3_accepts_fig1;
      Alcotest.test_case "paper example 3 rejects" `Quick
        test_example3_rejects;
      Alcotest.test_case "example 3 equals its XPath formula" `Quick
        test_example3_equals_xpath;
      Alcotest.test_case "translate paper example" `Quick
        test_translate_paper_example;
      Alcotest.test_case "translated automata stratified" `Quick
        test_translate_bounded_interleaving;
      prop_translate_agrees_with_semantics;
      prop_translate_somewhere;
      prop_translate_polynomial;
      prop_subtree_duplication;
      Alcotest.test_case "chain BIP (unbounded interleaving)" `Quick
        test_chain_bip;
      Alcotest.test_case "back-translation example" `Quick
        test_back_translation_example;
      prop_back_translation;
      Alcotest.test_case "back-translation rejects chain BIP" `Quick
        test_back_translation_rejects_chain;
      prop_intersection;
      Alcotest.test_case "counting atoms" `Quick test_counting_atoms;
      Alcotest.test_case "counting polarity check" `Quick
        test_count_polarity;
      Alcotest.test_case "cached analyses on a cyclic BIP" `Quick
        test_cached_analyses_cyclic;
      prop_cached_analyses;
      Alcotest.test_case "pinned translations" `Quick
        test_pinned_translations;
      Alcotest.test_case "cyclic components: no run, two runs" `Quick
        test_cyclic_outcomes;
      Alcotest.test_case "chain BIP run, node by node" `Quick
        test_chain_run
    ] )
