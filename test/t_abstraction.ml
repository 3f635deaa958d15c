(* The deepest correctness check of the Theorem-4 abstraction: walk a
   concrete data tree bottom-up through Transition.combine, choosing at
   each node the merging induced by the tree's actual data equalities,
   and compare the resulting extended state against the semantic ground
   truth computed by Bip_run:

   - the atom matrices must equal the semantic truth of every
     ∃(k1,k2)~ in the ctx's pair space: all of K×K by default, the
     observable pairs under [make_ctx ~project_pairs:true],
   - unique/many must equal the semantic multiplicities,
   - with no caps, the described values must be exactly the data values
     with a nonempty reach at the node, each with its exact reach set.

   This validates the transition function pointwise, independently of
   the emptiness search. A last property runs the search itself in both
   pair spaces and compares the verdicts. *)

open Xpds_decision
module Bip = Xpds_automata.Bip
module Bip_run = Xpds_automata.Bip_run
(* Bitv is the shared xpds.bitv library (unwrapped). *)
module Translate = Xpds_automata.Translate
module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label

let gen_labels = List.map Label.of_string Gen_helpers.default_labels

(* Abstract one tree bottom-up; returns the extended state and the datum
   realized by each described value. *)
let rec abstract ?t0 ctx m (info : Bip_run.node_info) tree :
    Ext_state.t * int array =
  let children =
    List.map2 (abstract ?t0 ctx m) info.Bip_run.info_children
      (Data_tree.children tree)
  in
  let child_states = Array.of_list (List.map fst children) in
  let child_data = Array.of_list (List.map snd children) in
  let items = Transition.visible_values m child_states in
  (* The "true" merging: group the visible items (and the root) by their
     concrete datum. *)
  let datum_of (i, v) = child_data.(i).(v) in
  let root_datum = Data_tree.data tree in
  let classes =
    let by_datum = Hashtbl.create 8 in
    List.iter
      (fun item ->
        let d = datum_of item in
        Hashtbl.replace by_datum d
          (item :: Option.value (Hashtbl.find_opt by_datum d) ~default:[]))
      items;
    let root_members =
      Option.value (Hashtbl.find_opt by_datum root_datum) ~default:[]
    in
    Hashtbl.remove by_datum root_datum;
    { Merging.has_root = true; members = List.rev root_members }
    :: Hashtbl.fold
         (fun _ members acc ->
           { Merging.has_root = false; members = List.rev members } :: acc)
         by_datum []
  in
  let results =
    Transition.combine ?t0 ctx (Data_tree.label tree) child_states classes
  in
  (* Keep the result whose root label matches the semantic run. *)
  match
    List.find_opt
      (fun (r : Transition.result) ->
        Bitv.equal r.Transition.state.Ext_state.states info.Bip_run.states)
      results
  with
  | None -> Alcotest.fail "no transition result matches the semantic run"
  | Some r ->
    let state = r.Transition.state in
    let class_datum =
      List.map
        (fun (kl : Merging.klass) ->
          if kl.Merging.has_root then root_datum
          else datum_of (List.hd kl.Merging.members))
        classes
    in
    let value_datum =
      Array.make (Array.length state.Ext_state.values) (-1)
    in
    List.iteri
      (fun e j -> if j >= 0 then value_datum.(j) <- List.nth class_datum e)
      (Array.to_list r.Transition.class_values);
    (state, value_datum)

(* Atom matrices = semantic truth, on the pairs the state keeps. *)
let check_matrices m (info : Bip_run.node_info) (state : Ext_state.t) =
  let k_card = m.Bip.pf.Xpds_automata.Pathfinder.n_states in
  for k1 = 0 to k_card - 1 do
    for k2 = 0 to k_card - 1 do
      if Ext_state.observable state k1 k2 then begin
      let sem_eq =
        List.exists
          (fun (_, ks) -> Bitv.mem k1 ks && Bitv.mem k2 ks)
          info.Bip_run.reach
      in
      let sem_neq =
        List.exists
          (fun (d1, ks1) ->
            Bitv.mem k1 ks1
            && List.exists
                 (fun (d2, ks2) -> d1 <> d2 && Bitv.mem k2 ks2)
                 info.Bip_run.reach)
          info.Bip_run.reach
      in
      if Ext_state.eq_at state k1 k2 <> sem_eq then
        Alcotest.failf "eq(%d,%d): abstraction %b, semantics %b" k1 k2
          (Ext_state.eq_at state k1 k2)
          sem_eq;
      if Ext_state.neq_at state k1 k2 <> sem_neq then
        Alcotest.failf "neq(%d,%d): abstraction %b, semantics %b" k1 k2
          (Ext_state.neq_at state k1 k2)
          sem_neq
      end
    done
  done

let check_against_semantics m (info : Bip_run.node_info)
    (state : Ext_state.t) value_datum =
  let k_card = m.Bip.pf.Xpds_automata.Pathfinder.n_states in
  let reach_of k =
    List.filter_map
      (fun (d, ks) -> if Bitv.mem k ks then Some d else None)
      info.Bip_run.reach
  in
  check_matrices m info state;
  (* Multiplicities. *)
  for k = 0 to k_card - 1 do
    let n_data = List.length (reach_of k) in
    let is_many = Bitv.mem k state.Ext_state.many in
    let unique = state.Ext_state.unique.(k) in
    let ok =
      match n_data with
      | 0 -> (not is_many) && unique = -1
      | 1 -> (not is_many) && unique >= 0
      | _ -> is_many && unique = -1
    in
    if not ok then
      Alcotest.failf "multiplicity of k%d: %d data, many=%b unique=%d" k
        n_data is_many unique;
    (* The unique value's datum must be k's single datum. *)
    if unique >= 0 then
      match reach_of k with
      | [ d ] ->
        Alcotest.(check int) "unique datum" d value_datum.(unique)
      | _ -> Alcotest.fail "unique pointer without a single datum"
  done;
  (* With no caps: described values = data with nonempty reach, with
     exact reach sets. *)
  let semantic =
    List.sort compare
      (List.map (fun (d, ks) -> (d, Bitv.elements ks)) info.Bip_run.reach)
  in
  let described =
    List.sort compare
      (Array.to_list
         (Array.mapi
            (fun j desc -> (value_datum.(j), Bitv.elements desc))
            state.Ext_state.values))
  in
  if semantic <> described then
    Alcotest.failf "described values differ from semantic reach (%d vs %d)"
      (List.length described) (List.length semantic)

(* The root's extended state, checked against the semantics, in the
   full K×K space and in the projected one. *)
let run_one phi tree =
  let m = Translate.of_node ~labels:gen_labels phi in
  match Bip_run.run m tree with
  | info ->
    List.iter
      (fun project_pairs ->
        let ctx = Transition.make_ctx ~project_pairs m in
        let state, value_datum = abstract ctx m info tree in
        check_against_semantics m info state value_datum)
      [ false; true ];
    true
  | exception Bip.Ill_formed _ -> true (* labels outside Σ *)

let prop_abstraction_exact =
  let arb =
    QCheck.pair
      (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
      (Gen_helpers.arb_tree ~max_height:4 ~max_width:3 ~max_data:3 ())
  in
  Gen_helpers.qtest ~count:150
    "extended states = semantic abstraction (pointwise)" arb
    (fun (phi, tree) -> run_one phi tree)

let test_abstraction_paper_example () =
  let phi =
    Xpds_xpath.Parser.node_of_string_exn "<desc[b & down[b] != down[b]]>"
  in
  Alcotest.(check bool) "example 1" true
    (run_one phi (Data_tree.example_fig1 ()));
  (* the projected space is a proper part of K×K here, so the second
     pass of [run_one] skips pairs *)
  let m = Translate.of_node ~labels:gen_labels phi in
  let k_card = m.Bip.pf.Xpds_automata.Pathfinder.n_states in
  let state =
    (List.hd
       (Transition.leaf
          (Transition.make_ctx ~project_pairs:true m)
          (Label.of_string "b")))
      .Transition.state
  in
  Alcotest.(check bool) "projected pair space is smaller than K×K" true
    (Ext_state.index_width state.Ext_state.index < k_card * k_card)

(* Case 1 of the transition, the lift of a child's own atom onto the
   parent's pairs, is the only way to see two data of one child's
   subtree once the child has dropped their descriptions. Here the a
   child describes none of its children's data (t0 = 0 keeps only the
   mandatory values, and no state retrieves datum 1 or 2 uniquely: each
   of its b and c states retrieves both), yet datum 1 is reached through
   a/b and through a/c, so the root's ∃(k1,k2)= holds. Without the lift
   the root's label would miss the formula's state; the matrices are
   checked too, in both pair spaces. (Only the matrices: a dropped value
   loses its datum, so the multiplicities no longer match the tree.) *)
let test_case1_lift () =
  let phi =
    Xpds_xpath.Parser.node_of_string_exn "down[a]/down[b] = down[a]/down[c]"
  in
  let node l d cs = Data_tree.make (Label.of_string l) d cs in
  let tree =
    node "c" 0
      [ node "a" 5 [ node "b" 1 []; node "b" 2 []; node "c" 1 []; node "c" 2 [] ]
      ]
  in
  let m = Translate.of_node ~labels:gen_labels phi in
  let info = Bip_run.run m tree in
  Alcotest.(check bool) "the formula holds at the root" true
    (Bitv.exists
       (fun q -> Bitv.mem q m.Bip.final)
       info.Bip_run.states);
  List.iter
    (fun project_pairs ->
      let ctx = Transition.make_ctx ~project_pairs m in
      let x = List.hd info.Bip_run.info_children in
      let child, _ =
        abstract ~t0:0 ctx m x (List.hd (Data_tree.children tree))
      in
      Alcotest.(check int) "the child describes its own datum only" 1
        (Array.length child.Ext_state.values);
      let root, _ = abstract ~t0:0 ctx m info tree in
      Alcotest.(check bool) "the root state is accepting" true
        (Ext_state.accepting root m.Bip.final);
      check_matrices m info root)
    [ false; true ]

(* The emptiness search in the projected pair space (the engine's
   default) and in the full one (certificate mode) never disagree
   between sat and unsat; a search that runs out of budget on either
   side says nothing. Random formulas are mostly satisfiable, so a
   third of the cases are [a & ~b] and a third [a & ~a]. *)
let prop_pair_spaces_agree =
  let options =
    Xpds_decision.Sat.Options.(default |> with_max_transitions 10_000)
  in
  let arb =
    let open QCheck.Gen in
    let g = Gen_helpers.gen_node_cfg Gen_helpers.star_free_cfg in
    QCheck.make ~print:Xpds_xpath.Pp.node_to_string
      (oneof
         [ g;
           map2 (fun a b -> Xpds_xpath.Ast.And (a, Xpds_xpath.Ast.Not b)) g g;
           map (fun a -> Xpds_xpath.Ast.And (a, Xpds_xpath.Ast.Not a)) g
         ])
  in
  let verdict = function
    | Emptiness.Nonempty _ -> Some true
    | Emptiness.Empty | Emptiness.Bounded_empty -> Some false
    | Emptiness.Resource_limit _ -> None
  in
  Gen_helpers.qtest ~count:100 "projected and full-space searches agree" arb
    (fun phi ->
      let m, config = Xpds_decision.Sat.general_search ~options phi in
      let projected = (Emptiness.check ~config m).outcome in
      let full = (Emptiness.check ~config ~basis:true m).outcome in
      match (verdict projected, verdict full) with
      | Some a, Some b when a <> b ->
        QCheck.Test.fail_reportf "projected %s, full space %s"
          (if a then "sat" else "unsat")
          (if b then "sat" else "unsat")
      | _ -> true)

let suite =
  ( "abstraction",
    [ Alcotest.test_case "paper example tree" `Quick
        test_abstraction_paper_example;
      Alcotest.test_case "case-1 lift of dropped values" `Quick
        test_case1_lift;
      prop_abstraction_exact;
      prop_pair_spaces_agree
    ] )
