(* Tests for the decision procedures: merging enumeration, extended
   states, the emptiness fixpoint (vs the brute-force oracle), witnesses,
   and containment. *)

open Xpds_decision
module Ast = Xpds_xpath.Ast
module Semantics = Xpds_xpath.Semantics
module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label
(* Bitv is the shared xpds.bitv library (unwrapped). *)

let parse s = Xpds_xpath.Parser.node_of_string_exn s

(* --- Merging --- *)

(* The reference enumeration: every partition of [items ∪ {root}] that
   keeps one value per child a class, root class first, as a list in
   restricted-growth order (each item joins an existing class, in class
   order, or else opens a new one), under the same optional budget as
   [Merging.iter]: joining the root class or a class of two or more
   costs 1, joining a singleton 2. *)
let enumerate ?budget (items : (int * int) list) : Merging.t list =
  let max_cost = match budget with Some b -> b | None -> max_int in
  let rec go built cost = function
    | [] ->
      [ List.map
          (fun (k : Merging.klass) ->
            { k with Merging.members = List.rev k.Merging.members })
          built ]
    | ((child, _) as item) :: rest ->
      let joins =
        List.concat
          (List.mapi
             (fun i (k : Merging.klass) ->
               let cost' =
                 cost
                 + if k.Merging.has_root then 1
                   else match k.Merging.members with [ _ ] -> 2 | _ -> 1
               in
               if
                 cost' <= max_cost
                 && not (List.exists (fun (c, _) -> c = child) k.members)
               then
                 go
                   (List.mapi
                      (fun j (k : Merging.klass) ->
                        if i = j then
                          { k with Merging.members = item :: k.members }
                        else k)
                      built)
                   cost' rest
               else [])
             built)
      in
      joins
      @ go (built @ [ { Merging.has_root = false; members = [ item ] } ])
          cost rest
  in
  go [ { Merging.has_root = true; members = [] } ] 0 items

let count ?budget items = List.length (enumerate ?budget items)

let test_merging_counts () =
  (* No items: only the root-singleton partition. *)
  Alcotest.(check int) "no items" 1 (count []);
  (* One item: in the root class or alone. *)
  Alcotest.(check int) "one item" 2 (count [ (0, 0) ]);
  (* Two items from the same child can never be merged together:
     partitions of {r, a, b} with a,b separated: r|a|b, ra|b, rb|a. *)
  Alcotest.(check int) "same child" 3 (count [ (0, 0); (0, 1) ]);
  (* Two items from different children: Bell(3) = 5 partitions, none
     excluded. *)
  Alcotest.(check int) "different children" 5 (count [ (0, 0); (1, 0) ])

let test_merging_budget () =
  let items = [ (0, 0); (1, 0); (2, 0) ] in
  (* Budget 0 forbids any identification: only all-singletons. *)
  Alcotest.(check int) "budget 0" 1 (count ~budget:0 items);
  (* Budget 1 additionally allows exactly one item joining root. *)
  Alcotest.(check int) "budget 1" 4 (count ~budget:1 items);
  (* Unbounded = Bell(4) = 15. *)
  Alcotest.(check int) "unbounded" 15 (count items)

let test_merging_classes_wellformed () =
  enumerate [ (0, 0); (1, 0); (1, 1); (2, 0) ]
  |> List.iter (fun classes ->
         (* Exactly one root class, first. *)
         (match classes with
         | first :: rest ->
           Alcotest.(check bool) "root first" true first.Merging.has_root;
           List.iter
             (fun (k : Merging.klass) ->
               Alcotest.(check bool) "single root" false k.Merging.has_root)
             rest
         | [] -> Alcotest.fail "no classes");
         (* Same-child constraint. *)
         List.iter
           (fun (k : Merging.klass) ->
             let children = List.map fst k.Merging.members in
             Alcotest.(check int) "one value per child per class"
               (List.length children)
               (List.length (List.sort_uniq Int.compare children)))
           classes)

(* The keyed walk the fixpoint runs against the reference, on random
   item lists pushed child by child (in a random child order). Each
   item's vector is drawn from a pool of three per case, so a child
   often has values with equal vectors — what the walk's symmetry
   pruning skips — and classes often have equal unions; 70 bits spans
   two words. The reference for key dedup is the sorted (root flag,
   class union) array. *)
let arb_keyed_items =
  let gen =
    let open QCheck.Gen in
    oneofl [ 3; 5; 70 ] >>= fun width ->
    list_repeat 3 (list_size (int_bound 3) (int_bound (width - 1)))
    >>= fun pool ->
    int_range 1 4 >>= fun n_children ->
    shuffle_l (List.init n_children Fun.id) >>= fun children ->
    list_repeat n_children (int_bound 3) >>= fun sizes ->
    let slots =
      List.concat
        (List.map2
           (fun c k -> List.init k (fun v -> (c, v)))
           children sizes)
    in
    list_repeat (List.length slots) (oneofl pool) >>= fun bits ->
    opt (int_bound 6) >|= fun budget ->
    (width, List.combine slots bits, budget)
  in
  QCheck.make gen ~print:(fun (width, items, budget) ->
      Printf.sprintf "width=%d budget=%s items=[%s]" width
        (match budget with Some b -> string_of_int b | None -> "none")
        (String.concat "; "
           (List.map
              (fun ((c, v), bits) ->
                Printf.sprintf "%d.%d:{%s}" c v
                  (String.concat "," (List.map string_of_int bits)))
              items)))

let reference_key ~width ~vec (merging : Merging.t) =
  let key =
    Array.of_list
      (List.map
         (fun (kl : Merging.klass) ->
           ( kl.Merging.has_root,
             List.fold_left
               (fun acc item -> Bitv.union acc (vec item))
               (Bitv.empty width) kl.Merging.members ))
         merging)
  in
  Array.sort
    (fun (r1, b1) (r2, b2) ->
      let c = Bool.compare r2 r1 in
      if c <> 0 then c else Bitv.compare b1 b2)
    key;
  key

let reference_key_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (r1, b1) (r2, b2) -> Bool.equal r1 r2 && Bitv.equal b1 b2)
       a b

(* The reference partitions, each with whether it is the first of its
   key. *)
let reference_firsts ?budget ~width ~vec pairs =
  let seen = ref [] in
  List.map
    (fun m ->
      let k = reference_key ~width ~vec m in
      let first = not (List.exists (reference_key_equal k) !seen) in
      if first then seen := k :: !seen;
      (m, first))
    (enumerate ?budget pairs)

(* One enum across every case: reuse after [clear] is what the engine
   does from combo to combo. *)
let shared_enum = Merging.create ()

(* Runs the walk on [items]: each partition walked, whether its class
   unions are right, and what [fresh_key] answered. *)
let walk ?budget ~width ~vec pairs =
  let e = shared_enum in
  Merging.clear e ~width;
  List.iter (fun ((c, v) as item) -> Merging.push e c v (vec item)) pairs;
  let walked = ref [] in
  Merging.iter ?budget e (fun e ->
      let merging = Merging.current e in
      let unions_ok =
        Merging.n_classes e = List.length merging
        && List.for_all Fun.id
             (List.mapi
                (fun c (kl : Merging.klass) ->
                  Bitv.equal (Merging.class_union e c)
                    (List.fold_left
                       (fun acc item -> Bitv.union acc (vec item))
                       (Bitv.empty width) kl.Merging.members))
                merging)
      in
      walked := (merging, unions_ok, Merging.fresh_key e) :: !walked);
  List.rev !walked

(* The walk is a subsequence of the reference that skips no key's first
   partition, and [fresh_key] answers [true] exactly on those. *)
let prop_keyed_enumeration =
  Gen_helpers.qtest ~count:300
    "keyed merging enumeration = a subsequence of the reference holding \
     each key's first partition" arb_keyed_items (fun (width, items, budget) ->
      let vec item = Bitv.of_list width (List.assoc item items) in
      let pairs = List.map fst items in
      let walked = walk ?budget ~width ~vec pairs in
      let rec matches walked reference =
        match (walked, reference) with
        | [], rest -> List.for_all (fun (_, first) -> not first) rest
        | (m, ok, fresh) :: walked', (m', first) :: reference' ->
          if m = m' then ok && fresh = first && matches walked' reference'
          else (not first) && matches walked reference'
        | _ :: _, [] -> false
      in
      matches walked (reference_firsts ?budget ~width ~vec pairs))

(* One child with three values of one vector beside a second child:
   17 partitions, 6 keys (at most one of the three in the root class;
   the other child's value in the root class, alone or with one of the
   three). The walk meets each key once, first the three ordered as
   (root, new, new), then as (new, new, new). Under budget 2 the root
   class with one of the three and the other child's value paired with
   another (cost 3) goes: 11 partitions, 5 keys. *)
let test_merging_symmetry () =
  let width = 2 in
  let vec (c, _) = Bitv.of_list width [ c ] in
  let pairs = [ (0, 0); (0, 1); (0, 2); (1, 0) ] in
  let show m =
    String.concat " "
      (List.map
         (fun (root, b) ->
           Printf.sprintf "%s{%s}"
             (if root then "r" else "")
             (String.concat "," (List.map string_of_int (Bitv.elements b))))
         (Array.to_list (reference_key ~width ~vec m)))
  in
  let check ?budget name ~total ~keys =
    let walked = walk ?budget ~width ~vec pairs in
    Alcotest.(check int) (name ^ ": reference") total
      (count ?budget pairs);
    Alcotest.(check (list string))
      (name ^ ": the walk, one partition a key")
      keys
      (List.map (fun (m, _, _) -> show m) walked);
    Alcotest.(check bool) (name ^ ": every key fresh") true
      (List.for_all (fun (_, ok, fresh) -> ok && fresh) walked)
  in
  check "unbounded" ~total:17
    ~keys:
      [ "r{0,1} {0} {0}"; "r{0} {0} {0,1}"; "r{0} {0} {0} {1}";
        "r{1} {0} {0} {0}"; "r{} {0} {0} {0,1}"; "r{} {0} {0} {0} {1}" ];
  check ~budget:2 "budget 2" ~total:11
    ~keys:
      [ "r{0,1} {0} {0}"; "r{0} {0} {0} {1}"; "r{1} {0} {0} {0}";
        "r{} {0} {0} {0,1}"; "r{} {0} {0} {0} {1}" ]

(* The pruning relies on a child's values being adjacent. *)
let test_merging_push_grouped () =
  let e = Merging.create () in
  let bv = Bitv.of_list 3 [ 0 ] in
  Merging.clear e ~width:3;
  Merging.push e 1 0 bv;
  Merging.push e 1 1 bv;
  Merging.push e 0 0 bv;
  Alcotest.check_raises "child 1 after child 0"
    (Invalid_argument
       "Merging.push: a child's values must be pushed together")
    (fun () -> Merging.push e 1 2 bv)

(* --- leaf transitions --- *)

let leaf_states formula label =
  let m = Xpds_automata.Translate.of_node formula in
  let ctx = Transition.make_ctx m in
  List.map (fun r -> r.Transition.state) (Transition.leaf ctx (Label.of_string label))

let test_leaf_state () =
  (* For the formula "a", a leaf labelled a: the root state must contain
     q_a, describe exactly one value (the root's datum), and k_I must
     uniquely retrieve it. *)
  let phi = parse "a" in
  match leaf_states phi "a" with
  | [ c ] ->
    Alcotest.(check int) "one described value" 1
      (Array.length c.Ext_state.values);
    let m = Xpds_automata.Translate.of_node phi in
    let ki = m.Xpds_automata.Bip.pf.Xpds_automata.Pathfinder.initial in
    Alcotest.(check bool) "kI reaches the root datum" true
      (Bitv.mem ki c.Ext_state.values.(0));
    Alcotest.(check int) "kI unique" 0 c.Ext_state.unique.(ki);
    Alcotest.(check bool) "no many" true (Bitv.is_empty c.Ext_state.many);
    Alcotest.(check bool) "diagonal eq for kI" true
      (Ext_state.nonzero c ki);
    Alcotest.(check bool) "no neq on a single datum" true
      (Bitv.is_empty c.Ext_state.neq)
  | l -> Alcotest.failf "expected 1 leaf state, got %d" (List.length l)

(* --- solver vs known answers --- *)

let verdict_of s =
  match Sat.decide_string s with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" s e

let is_sat r =
  match r.Sat.verdict with Sat.Sat _ -> true | _ -> false

let is_unsat r =
  match r.Sat.verdict with
  | Sat.Unsat | Sat.Unsat_bounded _ -> true
  | _ -> false

let test_known_sat () =
  List.iter
    (fun s ->
      let r = verdict_of s in
      Alcotest.(check bool) (s ^ " sat") true (is_sat r);
      Alcotest.(check bool)
        (s ^ " witness verified")
        true
        (r.Sat.witness_verified = Some true))
    [ "a";
      "<down[a]> & <down[b]> & <down[c]>";
      "down != down";
      "eps = desc[a] & eps != desc[a]";
      "<desc[b & down[b] != down[b]]>";
      "eps = down/down & ~(eps = down)";
      "desc[a] = desc[b] & desc[a] != desc[b]";
      "<(down[a]/down[b])*[b]> & ~<down[b]>";
      (* needs an a-b chain *)
      "eps = down/down/down & ~(eps = down) & ~(eps = down/down)"
    ]

let test_known_unsat () =
  List.iter
    (fun s ->
      let r = verdict_of s in
      Alcotest.(check bool) (s ^ " unsat") true (is_unsat r))
    [ "a & ~a";
      "a & b";
      "~<desc[a]> & <desc[a]>";
      "eps != eps";
      "down[a] = down[b] & ~<down>";
      "<down[a]> & ~<down>";
      "eps = desc[a & ~a]"
    ]

(* Under the paper's bounds a search capped at the fragment's Theorem-6
   depth bound is exact, so its saturation is [Empty], and [decide]
   answers [Unsat] from the general engine. ε ≠ ε keeps the paper's
   bounds small: |K| = 6, u0 = 480, t0 = 74, depth bound 1. *)
let test_height_cap_complete () =
  let phi = parse "eps != eps" in
  let options =
    { Sat.Options.default with Sat.Options.bounds = Bounds.paper }
  in
  let m, config = Sat.general_search ~options phi in
  Alcotest.(check (option int)) "depth bound" (Some 1)
    (Option.map
       (fun (h : Emptiness.height_cap) -> (h :> int))
       config.Emptiness.max_height);
  Alcotest.(check bool) "paper-complete" true
    (Bounds.paper_complete m config.Emptiness.bounds);
  (match (Emptiness.check ~config m).outcome with
  | Emptiness.Empty -> ()
  | _ -> Alcotest.fail "a height-capped paper-complete saturation is Empty");
  let r = Sat.decide ~options phi in
  Alcotest.(check string) "algorithm"
    "height-bounded fixpoint (Thm 6, H=1, width=480)" r.Sat.algorithm;
  match r.Sat.verdict with
  | Sat.Unsat -> ()
  | v -> Alcotest.failf "decide: %a" Sat.pp_verdict v

(* The paper's running example is satisfiable, with a machine-checked
   witness. *)
let test_paper_formula_sat () =
  let r = verdict_of "<desc[b & down[b] != down[b]]>" in
  match r.Sat.verdict with
  | Sat.Sat w ->
    Alcotest.(check bool) "semantics replay" true
      (Semantics.check_somewhere w
         (parse "<desc[b & down[b] != down[b]]>"))
  | _ -> Alcotest.fail "expected SAT"

(* --- the central correctness property: solver vs brute force --- *)

let gen_labels = List.map Label.of_string Gen_helpers.default_labels

(* The budgeted solver configuration the qcheck properties below share
   (small bounds keep the 60-case runs fast; the generator's label
   alphabet is declared so verification sees the same universe). *)
let budgeted_options =
  Sat.Options.(
    default |> with_max_states 2_000 |> with_max_transitions 30_000
    |> with_extra_labels gen_labels)

let budgeted_decide phi = Sat.decide ~options:budgeted_options phi

let prop_solver_vs_model_search =
  Gen_helpers.qtest ~count:60 "emptiness agrees with bounded model search"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi ->
      let r = budgeted_decide phi in
      let oracle =
        Model_search.search ~max_height:3 ~max_width:2 ~max_data:2
          ~max_trees:60_000
          (Ast.Exists (Ast.Filter (Ast.Axis Ast.Descendant, phi)))
      in
      match (r.Sat.verdict, oracle) with
      | Sat.Sat _, _ ->
        (* The witness must replay — soundness. *)
        r.Sat.witness_verified = Some true
      | (Sat.Unsat | Sat.Unsat_bounded _), Model_search.Sat t ->
        QCheck.Test.fail_reportf
          "solver says UNSAT but %s is a model"
          (Data_tree.to_string t)
      | ( (Sat.Unsat | Sat.Unsat_bounded _),
          ( Model_search.Unsat_within_bounds _
          | Model_search.Budget_exhausted _ ) ) ->
        true
      | Sat.Unknown _, _ -> true)

(* Same property on the regXPath fragment (Kleene stars). *)
let prop_solver_vs_model_search_star =
  Gen_helpers.qtest ~count:40 "emptiness agrees with oracle (regXPath)"
    (Gen_helpers.arb_node_cfg Gen_helpers.full_cfg)
    (fun phi ->
      let r = budgeted_decide phi in
      let oracle =
        Model_search.search ~max_height:3 ~max_width:2 ~max_data:2
          ~max_trees:60_000
          (Ast.Exists (Ast.Filter (Ast.Axis Ast.Descendant, phi)))
      in
      match (r.Sat.verdict, oracle) with
      | Sat.Sat _, _ -> r.Sat.witness_verified = Some true
      | (Sat.Unsat | Sat.Unsat_bounded _), Model_search.Sat t ->
        QCheck.Test.fail_reportf "solver UNSAT but %s is a model"
          (Data_tree.to_string t)
      | _ -> true)

(* --- small-model property (paper §6): witnesses have polynomial
   branching and bounded shared values between disjoint subtrees --- *)

(* Per automaton, [|K|] plus the sum over counted states of the largest
   bound a counting atom compares the count with: each child that the
   data-free union closure adds to a witness node grows the union of
   step-ups or one capped count, so no witness node has more children. *)
let data_free_branching (m : Xpds_automata.Bip.t) =
  let open Xpds_automata in
  let cap = Array.make m.Bip.q_card 0 in
  Array.iter
    (Bip.fold_form
       (fun () -> function
         | Bip.FCountGe (q, n) | Bip.FCountLt (q, n) ->
           cap.(q) <- max cap.(q) n
         | Bip.FCountZero q -> cap.(q) <- max cap.(q) 1
         | _ -> ())
       ())
    m.Bip.mu;
  m.Bip.pf.Pathfinder.n_states + Array.fold_left ( + ) 0 cap

let lift_algorithm = "data-free relaxation: witness lift"

let prop_witness_shape =
  Gen_helpers.qtest ~count:40 "witnesses respect the small-model shape"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi ->
      let r = budgeted_decide phi in
      match r.Sat.verdict with
      | Sat.Sat w when r.Sat.algorithm = "data-free union closure" ->
        let m, _ =
          Sat.general_search
            ~options:
              Sat.Options.(default |> with_extra_labels gen_labels)
            phi
        in
        Data_tree.branching w <= data_free_branching m
      | Sat.Sat w when r.Sat.algorithm = lift_algorithm ->
        (* A lifted witness has the shape of the relaxation's. *)
        let m', _ =
          Sat.general_search
            ~options:
              Sat.Options.(default |> with_extra_labels gen_labels)
            (Sat.data_free_relaxation (Xpds_xpath.Rewrite.simplify phi))
        in
        Data_tree.branching w <= data_free_branching m'
      | Sat.Sat w ->
        (* General engine: branching bounded by the width config (3 by
           default). *)
        Data_tree.branching w <= 3
      | _ -> true)

(* --- the data-free fast path agrees with the general engine --- *)

let prop_fast_path_consistent =
  Gen_helpers.qtest ~count:60 "data-free fast path = general engine"
    (Gen_helpers.arb_node_cfg Gen_helpers.data_free_cfg)
    (fun phi ->
      (* [phi] runs on the fast path; appending a vacuous off-diagonal
         data atom gives the general engine's automaton without
         changing the semantics, and that engine runs on it directly
         ([decide] would first try the relaxation and its lift). *)
      let phi' =
        Ast.Or (phi, Ast.Cmp (Ast.Axis Ast.Self, Ast.Neq, Ast.Axis Ast.Self))
      in
      let fast = budgeted_decide phi in
      let general =
        let m, config = Sat.general_search ~options:budgeted_options phi' in
        (Emptiness.check ~config m).Emptiness.outcome
      in
      let b = function
        | Sat.Sat _ -> Some true
        | Sat.Unsat | Sat.Unsat_bounded _ -> Some false
        | Sat.Unknown _ -> None
      in
      let g = function
        | Emptiness.Nonempty _ -> Some true
        | Emptiness.Empty | Emptiness.Bounded_empty -> Some false
        | Emptiness.Resource_limit _ -> None
      in
      match (fast.Sat.verdict, general) with
      | Sat.Sat _, Emptiness.Bounded_empty ->
        (* The general engine stays width-bounded: a model wider than
           its width is the one disagreement, and the fast path's
           witness must replay. *)
        fast.Sat.witness_verified = Some true
      | f, o -> (
        match (b f, g o) with Some x, Some y -> x = y | _ -> true))

(* Every data-free [Unsat] is unconditional, so no model exists at any
   width; bounded model search looks one child wider than the general
   engine's width 3. Half the formulas are ψ ∧ ⟨↓[ℓ₁ ∧ χ₁]⟩ ∧ … ∧
   ⟨↓[ℓ₄ ∧ χ₄]⟩ with the four labels a, b, c and ¬a ∧ ¬b ∧ ¬c shuffled
   (χᵢ mostly ⊤), so every model has four children; they are checked
   exhaustively at height 2 (1 364 trees), since the depth-first
   enumeration never moves a height-3 tree's first child within the
   tree budget. A closure cut at three children fails this property on
   about 40 % of them. *)
let prop_data_free_unsat_no_model =
  let gen =
    let open QCheck.Gen in
    let node = Gen_helpers.gen_node_cfg Gen_helpers.data_free_cfg in
    let small n =
      sized_size (int_bound n)
        (fst (Gen_helpers.gens_cfg Gen_helpers.data_free_cfg))
    in
    let lab l = Ast.Lab (Label.of_string l) in
    let other = Ast.Not (Ast.Or (lab "a", Ast.Or (lab "b", lab "c"))) in
    let down phi = Ast.Exists (Ast.Filter (Ast.Axis Ast.Child, phi)) in
    let wide =
      shuffle_l [ lab "a"; lab "b"; lab "c"; other ] >>= fun ls ->
      let chi = frequency [ (3, return Ast.True); (1, small 3) ] in
      pair (small 6) (list_repeat 4 chi) >|= fun (psi, chis) ->
      ( List.fold_left2
          (fun acc l chi -> Ast.And (acc, down (Ast.And (l, chi))))
          psi ls chis,
        2 )
    in
    frequency [ (1, pair node (return 3)); (1, wide) ]
  in
  Gen_helpers.qtest ~count:100 "data-free unsat: model search finds no model"
    (QCheck.make
       ~print:(fun (phi, _) -> Xpds_xpath.Pp.node_to_string phi)
       gen)
    (fun (phi, max_height) ->
      match (budgeted_decide phi).Sat.verdict with
      | Sat.Unsat -> (
        match
          Model_search.search ~max_height ~max_width:4 ~max_data:1
            ~max_trees:60_000
            (Ast.Exists (Ast.Filter (Ast.Axis Ast.Descendant, phi)))
        with
        | Model_search.Sat t ->
          QCheck.Test.fail_reportf "unsat, but %s is a model"
            (Data_tree.to_string t)
        | Model_search.Unsat_within_bounds _
        | Model_search.Budget_exhausted _ ->
          true)
      | _ -> true)

(* --- the data-free relaxation --- *)

(* [[ϕ]] ⊆ [[ϕ′]] on every data tree, so every model of ϕ is a model
   of ϕ′. *)
let prop_relaxation_over_approximates =
  Gen_helpers.qtest ~count:500 "data-free relaxation over-approximates"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    (fun (phi, t) ->
      let relaxed = Sat.data_free_relaxation phi in
      let env = Semantics.env_of_tree t in
      List.for_all
        (fun x -> Semantics.holds_at env relaxed x)
        (Semantics.sat_nodes env phi)
      && ((not (Semantics.check_somewhere t phi))
         || Semantics.check_somewhere t relaxed))

(* [α] without its filters and guards: [⟨α⟩] implies [⟨skeleton α⟩]. *)
let rec skeleton (p : Ast.path) : Ast.path =
  match p with
  | Ast.Axis _ -> p
  | Ast.Seq (a, b) -> Ast.Seq (skeleton a, skeleton b)
  | Ast.Union (a, b) -> Ast.Union (skeleton a, skeleton b)
  | Ast.Filter (a, _) | Ast.Guard (_, a) -> skeleton a
  | Ast.Star a -> Ast.Star (skeleton a)

(* Formulas ψ ∧ α ~ β ∧ ¬⟨γ⟩ over the data fragments, where γ is either
   random or the skeleton of α (then the relaxation is unsatisfiable by
   construction): whenever [Sat.decide] answers [Unsat] from the
   relaxation, the general engine, run directly on the formula's own
   automaton, finds no model either. *)
let prop_relaxation_agrees_with_engine =
  let arb =
    QCheck.make
      ~print:(fun phi -> Xpds_xpath.Pp.node_to_string phi)
      QCheck.Gen.(
        oneofl
          Gen_helpers.[ child_only_cfg; desc_only_cfg; star_free_cfg; full_cfg ]
        >>= fun cfg ->
        let path = Gen_helpers.gen_path_cfg cfg in
        quad (Gen_helpers.gen_node_cfg cfg) (pair path path)
          (oneofl [ Ast.Eq; Ast.Neq ])
          (pair bool path)
        >|= fun (psi, (a, b), op, (strip, g)) ->
        Ast.And
          ( Ast.And (psi, Ast.Cmp (a, op, b)),
            Ast.Not (Ast.Exists (if strip then skeleton a else g)) ))
  in
  Gen_helpers.qtest ~count:300 "relaxation answers: the engine finds no model"
    arb
    (fun phi ->
      let r = budgeted_decide phi in
      match r.Sat.verdict with
      | Sat.Unsat
        when String.starts_with ~prefix:"data-free relaxation" r.Sat.algorithm
        -> (
        let m, config = Sat.general_search ~options:budgeted_options phi in
        match (Emptiness.check ~config m).outcome with
        | Emptiness.Nonempty w ->
          QCheck.Test.fail_reportf "the relaxation said %s, but %s is a model"
            (Format.asprintf "%a" Sat.pp_verdict r.Sat.verdict)
            (Data_tree.to_string w)
        | _ -> true)
      | _ -> true)

(* --- the witness lift --- *)

(* Every lifted witness is a model: it replays through the reference
   semantics and the formula's own automaton, and the general engine,
   run on that automaton, never calls it empty. *)
let prop_lift_replays =
  Gen_helpers.qtest ~count:300 "lifted witnesses replay"
    (QCheck.make ~print:Xpds_xpath.Pp.node_to_string
       QCheck.Gen.(
         oneofl
           Gen_helpers.[ child_only_cfg; desc_only_cfg; star_free_cfg; full_cfg ]
         >>= Gen_helpers.gen_node_cfg))
    (fun phi ->
      let r = budgeted_decide phi in
      match r.Sat.verdict with
      | Sat.Sat w when r.Sat.algorithm = lift_algorithm -> (
        let m, config = Sat.general_search ~options:budgeted_options phi in
        if r.Sat.witness_verified <> Some true then
          QCheck.Test.fail_report "lifted witness not marked verified"
        else if not (Semantics.check_somewhere w phi) then
          QCheck.Test.fail_reportf "%s is no model" (Data_tree.to_string w)
        else if not (Xpds_automata.Bip_run.accepts m w) then
          QCheck.Test.fail_reportf "the automaton rejects %s"
            (Data_tree.to_string w)
        else
          match (Emptiness.check ~config m).outcome with
          | Emptiness.Empty ->
            QCheck.Test.fail_reportf "lifted %s, but the engine says empty"
              (Data_tree.to_string w)
          | _ -> true)
      | _ -> true)

(* data_chain sat 4 (E2) and sat 6, and desc_data sat 3 (E6, E8),
   lift within the cap (29, 405 and 162 assignments), with both
   replays; a lifted answer keeps the relaxation search's stats. *)
let test_known_lifts () =
  List.iter
    (fun (name, phi) ->
      let r = Sat.decide phi in
      Alcotest.(check string) (name ^ ": algorithm") lift_algorithm
        r.Sat.algorithm;
      Alcotest.(check (option bool)) (name ^ ": verified") (Some true)
        r.Sat.witness_verified;
      let m', config' =
        Sat.general_search
          (Sat.data_free_relaxation (Xpds_xpath.Rewrite.simplify phi))
      in
      Alcotest.(check int) (name ^ ": relaxation states")
        (Emptiness.check ~config:config' m').Emptiness.stats.n_states
        r.Sat.stats.Emptiness.n_states;
      match r.Sat.verdict with
      | Sat.Sat w ->
        Alcotest.(check bool) (name ^ ": model") true
          (Semantics.check_somewhere w phi)
      | v -> Alcotest.failf "%s: %a" name Sat.pp_verdict v)
    [ ("data_chain sat 4", Families.data_chain ~sat:true 4);
      ("data_chain sat 6", Families.data_chain ~sat:true 6);
      ("desc_data sat 3", Families.desc_data ~sat:true 3)
    ]

(* The lift [Sat.decide] runs ([Sat.lift]) answers only with a
   candidate both replays accept. A skeleton on which data_chain sat 2 holds under
   some assignment: its own automaton accepts the lift; an automaton
   over the same labels that accepts nothing must reject it (a check
   that skipped the run would not), and one that accepts every tree
   must not make a candidate on which the formula fails a model. *)
let test_lift_needs_both_replays () =
  let phi = Xpds_xpath.Rewrite.simplify (Families.data_chain ~sat:true 2) in
  let w = Data_tree.of_string_exn "a:0(a:0(a:0))" in
  let automaton text =
    fst
      (Sat.general_search
         ~options:Sat.Options.(default |> with_extra_labels gen_labels)
         (parse text))
  in
  let own =
    fst
      (Sat.general_search
         ~options:Sat.Options.(default |> with_extra_labels gen_labels)
         phi)
  in
  let lift m phi = Sat.lift m phi w in
  (match lift own phi with
  | Some t ->
    Alcotest.(check bool) "own automaton: a model" true
      (Semantics.check_somewhere t phi);
    Alcotest.(check bool) "own automaton: accepted" true
      (Xpds_automata.Bip_run.accepts own t)
  | None -> Alcotest.fail "data_chain sat 2 lifts on a 3-chain");
  Alcotest.(check bool) "an automaton that accepts nothing" true
    (lift (automaton "a & ~a") phi = None);
  (match lift (automaton "true") phi with
  | Some t ->
    Alcotest.(check bool) "an automaton that accepts all: a model" true
      (Semantics.check_somewhere t phi)
  | None -> Alcotest.fail "data_chain sat 2 lifts under a permissive run");
  Alcotest.(check bool) "no assignment is a model" true
    (lift (automaton "true") (parse "eps != eps") = None);
  (* The all-equal assignment comes first. *)
  match lift (automaton "true") (parse "eps = down") with
  | Some t -> Alcotest.(check (list int)) "all equal" [ 0 ] (Data_tree.data_values t)
  | None -> Alcotest.fail "eps = down lifts"

(* The lift stops at its cap and on the deadline: data_chain sat 10's
   relaxation witness is an 11-node chain, and no assignment among the
   first 1 024 (the lift's cap) is a model, so the lift gives up and
   the general engine runs into the deadline. The answer comes within
   the deadline + max(20 ms, 10 %), under deadlines shorter and longer
   than the lift's whole cap. *)
let test_lift_deadline () =
  let phi = Families.data_chain ~sat:true 10 in
  let eta = Xpds_xpath.Rewrite.simplify phi in
  let m, _ = Sat.general_search eta in
  let relaxed = Xpds_xpath.Rewrite.simplify (Sat.data_free_relaxation eta) in
  (match (Sat.decide relaxed).Sat.verdict with
  | Sat.Sat w ->
    Alcotest.(check bool) "no lift within the cap" true
      (Sat.lift m eta w = None)
  | v -> Alcotest.failf "relaxation: %a" Sat.pp_verdict v);
  List.iter
    (fun deadline ->
      let start = Unix.gettimeofday () in
      let options =
        Sat.Options.(
          default
          |> with_max_states 100_000_000
          |> with_max_transitions 100_000_000
          |> with_should_stop
               (Some
                  (fun () ->
                    (Unix.gettimeofday () -. start) *. 1000. > deadline)))
      in
      let r = Sat.decide ~options phi in
      let elapsed_ms = (Unix.gettimeofday () -. start) *. 1000. in
      (match r.Sat.verdict with
      | Sat.Unknown why ->
        Alcotest.(check string) "deadline reason" Emptiness.deadline_exceeded
          why
      | v -> Alcotest.failf "at %.0f ms: %a" deadline Sat.pp_verdict v);
      Alcotest.(check bool)
        (Printf.sprintf "at %.0f ms: answered in %.1f ms" deadline elapsed_ms)
        true
        (elapsed_ms <= deadline +. Float.max 20. (deadline /. 10.)))
    [ 5.; 100. ]

(* In certificate mode the engine always runs the general fixpoint,
   also on a data-free automaton, and the algorithm names it: cold
   corpus formula 0 (child_chain sat 1). *)
let test_certificate_algorithm () =
  let phi = List.hd (Corpus.formulas ()) in
  let algorithm o = (Sat.decide ~options:o phi).Sat.algorithm in
  Alcotest.(check string) "plain" "data-free union closure"
    (algorithm Sat.Options.default);
  Alcotest.(check string) "certificate" "full fixpoint (Thm 4, width=3)"
    (algorithm Sat.Options.(default |> with_certificate true))

(* --- witness minimization --- *)

let test_witness_min () =
  let t =
    Data_tree.of_string_exn "a:0(b:1(c:2),b:3,x:4(y:5))"
  in
  let phi = parse "<down[b]>" in
  let m = Witness_min.minimize t phi in
  (* Only the root and one b-child should survive. *)
  Alcotest.(check int) "two nodes" 2 (Data_tree.size m);
  Alcotest.(check bool) "still satisfies" true
    (Semantics.check m phi)

let prop_witness_min_sound =
  Gen_helpers.qtest ~count:120 "minimization preserves satisfaction"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    (fun (phi, t) ->
      QCheck.assume (Semantics.check t phi);
      let m = Witness_min.minimize t phi in
      Semantics.check m phi && Data_tree.size m <= Data_tree.size t)

let prop_witness_min_local_minimum =
  Gen_helpers.qtest ~count:60 "minimized witnesses are deletion-minimal"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    (fun (phi, t) ->
      QCheck.assume (Semantics.check t phi);
      let m = Witness_min.minimize t phi in
      (* no single subtree can still be deleted *)
      List.for_all
        (fun p ->
          p = []
          ||
          match
            (* delete p and recheck *)
            let rec del tree = function
              | [] -> None
              | i :: rest ->
                let cs = Data_tree.children tree in
                Some
                  (Data_tree.make (Data_tree.label tree)
                     (Data_tree.data tree)
                     (List.concat
                        (List.mapi
                           (fun j c ->
                             if j <> i then [ c ]
                             else
                               match del c rest with
                               | Some c' -> [ c' ]
                               | None -> [])
                           cs)))
            in
            del m p
          with
          | Some m' -> not (Semantics.check m' phi)
          | None -> true)
        (Data_tree.positions m))

(* --- containment --- *)

let test_containment () =
  let phi = parse "<down[a]>" in
  let psi = parse "<down>" in
  (* With the practical default width the saturation is below the
     paper's bounds, so the sound answer is [Holds_bounded], never a
     certified [Holds]. *)
  (match Containment.contained phi psi with
  | Containment.Holds | Containment.Holds_bounded _ -> ()
  | _ -> Alcotest.fail "<down[a]> should be contained in <down>");
  (match Containment.contained psi phi with
  | Containment.Fails w ->
    (* The counterexample has a node with a child but no a-child. *)
    Alcotest.(check bool) "counterexample valid" true
      (Semantics.check_somewhere w
         (Ast.And (psi, Xpds_xpath.Build.not_ phi)))
  | _ -> Alcotest.fail "<down> contained in <down[a]> should fail");
  match
    Containment.equivalent (parse "<desc[a]>") (parse "<desc/desc[a]>")
  with
  | ( (Containment.Holds | Containment.Holds_bounded _),
      (Containment.Holds | Containment.Holds_bounded _) ) ->
    ()
  | _ -> Alcotest.fail "desc and desc/desc should be equivalent"

let test_data_containment () =
  (* ↓[a] ≠ ↓[a] implies ⟨↓[a]⟩ (two witnesses imply one). *)
  let phi = parse "down[a] != down[a]" in
  let psi = parse "<down[a]>" in
  (match Containment.contained phi psi with
  | Containment.Holds | Containment.Holds_bounded _ -> ()
  | _ -> Alcotest.fail "≠ test should imply existence");
  (* but not conversely *)
  match Containment.contained psi phi with
  | Containment.Fails _ -> ()
  | _ -> Alcotest.fail "existence should not imply ≠"

(* --- per-search set-up --- *)

(* A fresh solve must allocate nothing directly on the major heap: every
   per-search table starts small and grows, and the automaton's
   dependency analysis is computed once by [Bip.create]. Arrays above
   the minor-heap size limit (256 words) are allocated straight in the
   major heap; 1 024-bucket tables cost 2 050 such words per data-free
   search and 7 172 per general-engine search. The first call warms up
   process-wide state (label interning, lazy globals); the second is
   measured. *)
let test_no_direct_major_alloc () =
  let options = Sat.Options.default in
  let direct_major_words f =
    let _, promoted0, major0 = Gc.counters () in
    f ();
    let _, promoted1, major1 = Gc.counters () in
    major1 -. major0 -. (promoted1 -. promoted0)
  in
  List.iter
    (fun s ->
      let phi = parse s in
      ignore (Sat.decide ~options phi);
      let words =
        direct_major_words (fun () -> ignore (Sat.decide ~options phi))
      in
      Alcotest.(check (float 0.)) s 0. words)
    [ "<down[a]>" (* data-free engine *);
      "down[a] = down[b]";
      "<down[a & down[b] != down[b]]>"
    ]

let suite =
  ( "decision",
    [ Alcotest.test_case "merging counts" `Quick test_merging_counts;
      Alcotest.test_case "merging budget" `Quick test_merging_budget;
      Alcotest.test_case "merging well-formed" `Quick
        test_merging_classes_wellformed;
      Alcotest.test_case "merging symmetry pruning" `Quick
        test_merging_symmetry;
      Alcotest.test_case "merging items grouped by child" `Quick
        test_merging_push_grouped;
      prop_keyed_enumeration;
      Alcotest.test_case "leaf extended state" `Quick test_leaf_state;
      Alcotest.test_case "known sat formulas" `Quick test_known_sat;
      Alcotest.test_case "known unsat formulas" `Quick test_known_unsat;
      Alcotest.test_case "height cap complete under paper bounds" `Quick
        test_height_cap_complete;
      Alcotest.test_case "paper formula" `Quick test_paper_formula_sat;
      prop_solver_vs_model_search;
      prop_solver_vs_model_search_star;
      prop_witness_shape;
      prop_fast_path_consistent;
      prop_data_free_unsat_no_model;
      prop_relaxation_over_approximates;
      prop_relaxation_agrees_with_engine;
      prop_lift_replays;
      Alcotest.test_case "known lifts" `Quick test_known_lifts;
      Alcotest.test_case "lift needs both replays" `Quick
        test_lift_needs_both_replays;
      Alcotest.test_case "lift cap and deadline" `Quick test_lift_deadline;
      Alcotest.test_case "certificate mode names its engine" `Quick
        test_certificate_algorithm;
      Alcotest.test_case "witness minimization" `Quick test_witness_min;
      prop_witness_min_sound;
      prop_witness_min_local_minimum;
      Alcotest.test_case "containment" `Quick test_containment;
      Alcotest.test_case "containment with data" `Quick
        test_data_containment;
      Alcotest.test_case "no direct major-heap allocation per solve" `Quick
        test_no_direct_major_alloc
    ] )
