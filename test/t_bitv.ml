(* The shared Bitv kernel against a reference Set.Make(Int) model —
   word-skipping iteration, SWAR cardinal, short-circuit predicates and
   the mutable builder API — plus a regression pin of the emptiness
   engine's verdicts and stats on the bench family corpus (the hot-path
   rewrite must not change what the search explores, only how fast). *)

module IS = Set.Make (Int)

(* Widths straddling the 63-bit word boundaries: single partial word,
   exactly one word, one word + 1 bit, two words, two words + tail. *)
let widths = [ 1; 5; 62; 63; 64; 65; 126; 127; 130 ]

let arb_sets =
  let gen =
    let open QCheck.Gen in
    oneofl widths >>= fun w ->
    let elt = int_bound (w - 1) in
    pair (list_size (int_bound 50) elt) (list_size (int_bound 50) elt)
    >|= fun (xs, ys) -> (w, xs, ys)
  in
  QCheck.make gen ~print:(fun (w, xs, ys) ->
      Printf.sprintf "w=%d xs=[%s] ys=[%s]" w
        (String.concat ";" (List.map string_of_int xs))
        (String.concat ";" (List.map string_of_int ys)))

let prop_set_ops =
  Gen_helpers.qtest ~count:500 "bitv set ops agree with Set.Make(Int)"
    arb_sets
    (fun (w, xs, ys) ->
      let bx = Bitv.of_list w xs and by = Bitv.of_list w ys in
      let sx = IS.of_list xs and sy = IS.of_list ys in
      Bitv.elements (Bitv.union bx by) = IS.elements (IS.union sx sy)
      && Bitv.elements (Bitv.inter bx by) = IS.elements (IS.inter sx sy)
      && Bitv.elements (Bitv.diff bx by) = IS.elements (IS.diff sx sy)
      && Bitv.cardinal bx = IS.cardinal sx
      && Bitv.subset bx by = IS.subset sx sy
      && Bitv.is_empty bx = IS.is_empty sx
      && Bitv.equal bx by = IS.equal sx sy
      && List.for_all (fun i -> Bitv.mem i bx) xs
      && Bitv.choose bx = IS.min_elt_opt sx)

let prop_iter_fold =
  Gen_helpers.qtest ~count:500 "bitv iteration agrees with the model"
    arb_sets
    (fun (w, xs, _) ->
      let bx = Bitv.of_list w xs and sx = IS.of_list xs in
      let collected = ref [] in
      Bitv.iter (fun i -> collected := i :: !collected) bx;
      List.rev !collected = IS.elements sx
      && Bitv.fold (fun i acc -> acc + (3 * i) + 1) bx 0
         = IS.fold (fun i acc -> acc + (3 * i) + 1) sx 0
      && Bitv.exists (fun i -> i mod 7 = 0) bx
         = IS.exists (fun i -> i mod 7 = 0) sx
      && Bitv.for_all (fun i -> i mod 2 = 0) bx
         = IS.for_all (fun i -> i mod 2 = 0) sx
      && Bitv.elements (Bitv.filter (fun i -> i mod 3 = 0) bx)
         = IS.elements (IS.filter (fun i -> i mod 3 = 0) sx)
      (* raw-word iteration stays inside its window: the words around
         it are all ones *)
      &&
      let wc = Bitv.word_count w in
      let raw = Array.make (wc + 2) (-1) in
      Bitv.blit_words bx raw 1;
      let via_words = ref [] in
      Bitv.iter_words (fun i -> via_words := i :: !via_words) raw ~pos:1 ~len:wc;
      List.rev !via_words = IS.elements sx)

let prop_builder =
  Gen_helpers.qtest ~count:500 "builder api agrees with functional ops"
    arb_sets
    (fun (w, xs, ys) ->
      let bx = Bitv.of_list w xs and by = Bitv.of_list w ys in
      (* add_in_place builds the same set as of_list. *)
      let b = Bitv.builder w in
      List.iter (fun i -> Bitv.add_in_place i b) xs;
      let built = Bitv.freeze b in
      (* union_into accumulates the functional union and reports
         whether any new bit landed. *)
      let b2 = Bitv.builder_of bx in
      let gained = Bitv.union_into by b2 in
      let unioned = Bitv.freeze b2 in
      (* freeze must snapshot: mutating after freeze is invisible. *)
      let b3 = Bitv.builder w in
      let frozen_empty = Bitv.freeze b3 in
      Bitv.add_in_place (w - 1) b3;
      Bitv.equal built bx
      && List.for_all (fun i -> Bitv.builder_mem i b) xs
      && Bitv.equal unioned (Bitv.union bx by)
      && gained = not (Bitv.subset by bx)
      && Bitv.is_empty frozen_empty
      && (Bitv.builder_reset b2;
          Bitv.is_empty (Bitv.freeze b2)))

let arb_range =
  let gen =
    let open QCheck.Gen in
    oneofl widths >>= fun w ->
    (* lo may exceed hi: empty ranges are legal and must work *)
    pair (int_bound (w - 1)) (int_bound (w - 1)) >|= fun (a, b) -> (w, a, b)
  in
  QCheck.make gen ~print:(fun (w, lo, hi) ->
      Printf.sprintf "w=%d lo=%d hi=%d" w lo hi)

let prop_range_fill =
  Gen_helpers.qtest ~count:500 "of_range/add_range_in_place = element loop"
    arb_range
    (fun (w, lo, hi) ->
      let expected =
        if lo > hi then [] else List.init (hi - lo + 1) (fun i -> lo + i)
      in
      let b = Bitv.builder w in
      Bitv.add_in_place (w - 1) b;
      Bitv.add_range_in_place ~lo ~hi b;
      Bitv.elements (Bitv.of_range w ~lo ~hi) = expected
      && Bitv.elements (Bitv.freeze b)
         = IS.elements (IS.add (w - 1) (IS.of_list expected))
      (* word-boundary edges: full-width range is full *)
      && Bitv.equal (Bitv.of_range w ~lo:0 ~hi:(w - 1)) (Bitv.full w)
      && Bitv.is_empty (Bitv.of_range w ~lo:1 ~hi:0))

let prop_hash_compare =
  Gen_helpers.qtest ~count:500 "hash/compare consistent with equal"
    arb_sets
    (fun (w, xs, ys) ->
      let bx = Bitv.of_list w xs and by = Bitv.of_list w ys in
      (Bitv.compare bx by = 0) = Bitv.equal bx by
      && ((not (Bitv.equal bx by)) || Bitv.hash bx = Bitv.hash by)
      && Bitv.hash bx >= 0)

(* [Hashtbl.Make] indexes its buckets by the low bits of the hash, so
   those must depend on every bit: the 400 one-bit vectors of width 400
   spread over at least 100 of the 128 values of the low seven bits
   (an FNV mix without a finalizer reaches 31). *)
let test_hash_low_bits () =
  let seen = Array.make 128 false in
  for i = 0 to 399 do
    seen.(Bitv.hash (Bitv.of_list 400 [ i ]) land 127) <- true
  done;
  let n = Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 128 low-bit values reached" n)
    true (n >= 100)

(* --- emptiness engine regression ---

   Verdict and exact exploration stats of the general engine on the
   bench families, pinned from the pre-rewrite engine. The
   canonical-key and memoization changes are only re-representations of
   what the search already deduplicated, so every count must survive
   byte-for-byte — including the budget-exhaustion rows, which pin the
   exploration *order* too. The mergings column is the exception: it
   counts the mergings the walk visits, which its symmetry pruning
   reduces without moving the fresh keys or applied transitions. The
   engine is called directly, on the automaton and configuration
   [Sat.decide] gives it ([Sat.general_search]): [decide] answers some
   of these formulas from their data-free relaxation first (pinned
   separately below). *)

let outcome_name = function
  | Xpds.Emptiness.Nonempty _ -> "sat"
  | Xpds.Emptiness.Empty -> "unsat"
  | Xpds.Emptiness.Bounded_empty -> "unsat_bounded"
  | Xpds.Emptiness.Resource_limit w -> "unknown:" ^ w

let engine ?options phi =
  let m, config = Xpds.Sat.general_search ?options phi in
  let a = Xpds.Emptiness.check ~config m in
  (a.outcome, a.stats)

let check_golden
    ( name, phi, verdict, states, transitions, mergings, fresh_keys,
      applied, height ) () =
  let outcome, st = engine phi in
  Alcotest.(check string) (name ^ " verdict") verdict (outcome_name outcome);
  Alcotest.(check int) (name ^ " states") states
    st.Xpds.Emptiness.n_states;
  Alcotest.(check int) (name ^ " transitions") transitions
    st.Xpds.Emptiness.n_transitions;
  Alcotest.(check int) (name ^ " mergings") mergings
    st.Xpds.Emptiness.n_mergings;
  Alcotest.(check int) (name ^ " fresh keys") fresh_keys
    st.Xpds.Emptiness.n_fresh_keys;
  Alcotest.(check int) (name ^ " applied") applied
    st.Xpds.Emptiness.n_applied;
  Alcotest.(check int) (name ^ " height") height
    st.Xpds.Emptiness.max_height_reached

(* name, formula, verdict, states, transitions, mergings, fresh keys,
   applied, height *)
let goldens =
  [ (* child_chain and mixed_axes are data-free: pinned from the
       data-free union closure *)
    ("child_chain_sat_2", Families.child_chain ~sat:true 2, "sat", 3, 5, 0,
     0, 0, 0, `Quick);
    ("child_chain_unsat_2", Families.child_chain ~sat:false 2, "unsat", 5,
     10, 0, 0, 0, 3, `Quick);
    ("child_chain_sat_3", Families.child_chain ~sat:true 3, "sat", 4, 7, 0,
     0, 0, 0, `Quick);
    ("child_chain_sat_4", Families.child_chain ~sat:true 4, "sat", 5, 9,
     0, 0, 0, 0, `Quick);
    ("data_chain_sat_2", Families.data_chain ~sat:true 2, "sat", 9, 16, 25,
     15, 9, 3, `Quick);
    ("data_chain_sat_3", Families.data_chain ~sat:true 3, "sat", 88, 2342,
     13874, 2341, 530, 4, `Quick);
    ("data_chain_unsat_2", Families.data_chain ~sat:false 2,
     "unsat_bounded", 79, 2333, 13865, 2332, 521, 3, `Quick);
    ("desc_data_sat_1", Families.desc_data ~sat:true 1, "sat", 14, 23, 7,
     7, 17, 2, `Quick);
    ("desc_data_unsat_1", Families.desc_data ~sat:false 1,
     "unknown:transition budget", 206, 200001, 159528, 66666, 4551, 0,
     `Slow);
    ("root_data_1", Families.root_data 1, "sat", 1, 1, 0, 0, 0, 1, `Quick);
    ("root_data_2", Families.root_data 2, "sat", 4, 5, 1, 1, 2, 2, `Quick);
    (* root_data 3-5: several labels per merging, so these pin the
       sharing of one set of lights across the labels of a merging;
       row 5 is hard-solve's heaviest sat formula *)
    ("root_data_3", Families.root_data 3, "sat", 33, 51, 13, 12, 39, 2,
     `Quick);
    ("root_data_4", Families.root_data 4, "sat", 308, 599, 149, 119, 369,
     2, `Quick);
    ("root_data_5", Families.root_data 5, "sat", 2992, 12863, 2278, 2143,
     8729, 3, `Quick);
    (* The reg_alt counts are sensitive to the global label-intern
       order, which depends on what else the linked binary interned at
       init; these values are for this test binary (a standalone run of
       the same formulas gives 93/304/132 and 6049/·/188828). *)
    ("reg_alt_sat", Families.reg_alternation ~sat:true (), "sat", 108, 430,
     173, 143, 214, 3, `Quick);
    ("reg_alt_unsat", Families.reg_alternation ~sat:false (),
     "unknown:transition budget", 5343, 200001, 94275, 66666, 24684, 0,
     `Slow);
    ("mixed_axes_sat_2", Families.mixed_axes ~sat:true 2, "sat", 3, 5, 0,
     0, 0, 0, `Quick);
    ("mixed_axes_unsat_2", Families.mixed_axes ~sat:false 2, "unsat", 3, 6,
     0, 0, 0, 2, `Quick)
  ]

let regression_cases =
  List.map
    (fun (name, phi, v, s, t, m, k, a, h, speed) ->
      Alcotest.test_case ("engine stats: " ^ name) speed
        (check_golden (name, phi, v, s, t, m, k, a, h)))
    goldens

(* The engine at the 20k-transition budget of the benchmark's
   hard-solve workload, on the four formulas that run that budget out,
   mixed_axes unsat 6 (decided by the data-free union closure) and the
   workload's generated row with the most mergings. The
   row names date from when the service default pruned subsumed
   states. The same label-intern caveat as above applies: the reg_alt row holds
   for this test binary only. *)
let check_budget_golden
    (name, phi, verdict, states, transitions, mergings, fresh_keys, applied)
    () =
  let options =
    { Xpds.Sat.Options.default with max_transitions = 20_000 }
  in
  let outcome, st = engine ~options phi in
  Alcotest.(check string) (name ^ " verdict") verdict (outcome_name outcome);
  Alcotest.(check int) (name ^ " states") states
    st.Xpds.Emptiness.n_states;
  Alcotest.(check int) (name ^ " transitions") transitions
    st.Xpds.Emptiness.n_transitions;
  Alcotest.(check int) (name ^ " mergings") mergings
    st.Xpds.Emptiness.n_mergings;
  Alcotest.(check int) (name ^ " fresh keys") fresh_keys
    st.Xpds.Emptiness.n_fresh_keys;
  Alcotest.(check int) (name ^ " applied") applied
    st.Xpds.Emptiness.n_applied

(* name, formula, verdict, states, transitions, mergings, fresh keys,
   applied *)
let budget_goldens =
  [ ("data_chain_sat_4", Families.data_chain ~sat:true 4,
     "unknown:transition budget", 1417, 20001, 38400, 20000, 6234);
    ("data_chain_unsat_3", Families.data_chain ~sat:false 3,
     "unknown:transition budget", 1417, 20001, 38400, 20000, 6192);
    ("desc_data_unsat_1", Families.desc_data ~sat:false 1,
     "unknown:transition budget", 168, 20001, 8804, 6666, 1224);
    ("reg_alt_unsat", Families.reg_alternation ~sat:false (),
     "unknown:transition budget", 1580, 20001, 7724, 6666, 5843);
    ("mixed_axes_unsat_6", Families.mixed_axes ~sat:false 6, "unsat", 7, 14,
     0, 0, 0);
    (* hard-solve's merging-heavy generated row: 1 468 distinct keys
       among 100 779 partitions, of which the pruned walk visits
       7 121 *)
    ("generated_neq_desc",
     Xpds.Ast.as_node
       (Xpds.Parser.formula_of_string_exn
          "([a]eps|eps) != (eps|eps[b]/eps) & desc = desc & desc = eps"),
     "unsat_bounded", 9, 4407, 7121, 1468, 66)
  ]

let budget_cases =
  List.map
    (fun ((name, _, _, _, _, _, _, _) as g) ->
      Alcotest.test_case ("pruned engine stats: " ^ name) `Quick
        (check_budget_golden g))
    budget_goldens

(* [Sat.decide] on the families its data-free relaxation answers, at
   the default budget and at hard-solve's 20k-transition budget (the
   same answer: the relaxation's search is far below both). The states
   and transitions are the relaxation's union closure. *)
let verdict_name (r : Xpds.Sat.report) =
  match r.Xpds.Sat.verdict with
  | Xpds.Sat.Sat _ -> "sat"
  | Xpds.Sat.Unsat -> "unsat"
  | Xpds.Sat.Unsat_bounded why -> "unsat_bounded:" ^ why
  | Xpds.Sat.Unknown w -> "unknown:" ^ w

let relaxed_goldens =
  [ ("data_chain_unsat_2", Families.data_chain ~sat:false 2, 2, 3);
    ("data_chain_unsat_3", Families.data_chain ~sat:false 3, 3, 4);
    ("desc_data_unsat_1", Families.desc_data ~sat:false 1, 4, 12);
    ("reg_alt_unsat", Families.reg_alternation ~sat:false (), 4, 15)
  ]

let check_relaxed (name, phi, states, transitions) () =
  List.iter
    (fun max_transitions ->
      let options = { Xpds.Sat.Options.default with max_transitions } in
      let r = Xpds.Sat.decide ~options phi in
      let st = r.Xpds.Sat.stats in
      let name = Printf.sprintf "%s (max %d)" name max_transitions in
      Alcotest.(check string) (name ^ " verdict") "unsat" (verdict_name r);
      Alcotest.(check int) (name ^ " states") states
        st.Xpds.Emptiness.n_states;
      Alcotest.(check int) (name ^ " transitions") transitions
        st.Xpds.Emptiness.n_transitions;
      Alcotest.(check int) (name ^ " mergings") 0
        st.Xpds.Emptiness.n_mergings)
    [ Xpds.Sat.Options.default.max_transitions; 20_000 ]

let relaxed_cases =
  List.map
    (fun ((name, _, _, _) as g) ->
      Alcotest.test_case ("relaxation stats: " ^ name) `Quick
        (check_relaxed g))
    relaxed_goldens

let suite =
  ( "bitv",
    [ prop_set_ops; prop_iter_fold; prop_builder; prop_range_fill;
      prop_hash_compare;
      Alcotest.test_case "hash spreads over the low bits" `Quick
        test_hash_low_bits ]
    @ regression_cases @ budget_cases @ relaxed_cases )
