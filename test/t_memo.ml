(* The emptiness fixpoint's transition memo (DESIGN.md: Transition memo)
   replays a transition whose children projection and merging key were
   already applied in the same search, instead of recomputing it:

   - the key is enough: over the first rounds of a search, every
     transition that shares (label, children projection, transition key)
     with an earlier one yields the same states — on random formulas
     under several t0 values, and on the pinned formula where the
     sorted merging key alone is not enough;
   - a deadline that fires on the replay path stops the search exactly
     where the engine without a memo stopped (pinned counts);
   - the memo answers most transitions of a hit-heavy search, and only
     repeated ones. *)

module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder
module Translate = Xpds_automata.Translate
module Label = Xpds_datatree.Label
module Emptiness = Xpds_decision.Emptiness
module Ext_state = Xpds_decision.Ext_state
module Merging = Xpds_decision.Merging
module Sat = Xpds_decision.Sat
module Transition = Xpds_decision.Transition
open Xpds_xpath.Ast

(* The automaton [Sat.decide] searches for [phi]. *)
let automaton phi =
  Translate.of_node
    ~labels:(List.map Label.of_string Gen_helpers.default_labels)
    (Exists (Filter (Axis Descendant, Xpds_xpath.Rewrite.simplify phi)))

module StateTbl = Hashtbl.Make (Ext_state)

module Group = Hashtbl.Make (struct
  type t = Label.t * Transition.projection * Merging.Key.t

  let equal (l1, p1, k1) (l2, p2, k2) =
    Label.equal l1 l2
    && Transition.projection_equal p1 p2
    && Merging.Key.equal k1 k2

  let hash (l, p, k) =
    Hashtbl.hash
      (Label.hash l, Transition.projection_hash p, Merging.Key.hash k)
end)

type tally = {
  mutable repeats : int;  (** transitions whose group was already seen *)
  mutable mismatches : int;  (** ... that returned other states *)
  mutable sorted_mismatches : int;  (** the same under the sorted key *)
}

exception Enough

(* The engine's first [rounds] rounds: the
   leaves, then per round every combo of up to [width] states that
   holds one from the previous round (at most [max_combos] a round),
   under every merging [Merging.fresh_key] selects, for every label. *)
let explore ~t0 ?dup_cap ?merge_budget ~width ~rounds ~max_combos m =
  let ctx = Transition.make_ctx ~project_pairs:true m in
  let memo = Transition.memo_of ctx in
  let k_card = m.Bip.pf.Pathfinder.n_states in
  let labels = m.Bip.labels in
  let seen = StateTbl.create 64 in
  let states = ref [] in
  let add st =
    if not (StateTbl.mem seen st) then begin
      StateTbl.add seen st ();
      states := st :: !states
    end
  in
  List.iter
    (fun l ->
      List.iter
        (fun (r : Transition.result) -> add r.Transition.state)
        (Transition.leaf ~t0 ?dup_cap ctx l))
    labels;
  let groups = Group.create 64 and sorted = Group.create 64 in
  let t = { repeats = 0; mismatches = 0; sorted_mismatches = 0 } in
  let record tbl key results =
    match Group.find_opt tbl key with
    | Some prev -> Some (List.equal Ext_state.equal prev results)
    | None ->
      Group.add tbl key results;
      None
  in
  let enum = Merging.create () in
  let apply children =
    let proj = Transition.projection ctx children in
    Merging.clear enum ~width:k_card;
    Array.iteri
      (fun i (c : Ext_state.t) ->
        Array.iteri
          (fun v desc ->
            let su = Pathfinder.step_up_m memo desc in
            if not (Bitv.is_empty su) then Merging.push enum i v su)
          c.Ext_state.values)
      children;
    Merging.iter ?budget:merge_budget enum (fun e ->
        if Merging.fresh_key e then begin
          let merging = Merging.current e in
          let tkey = Merging.transition_key e ~t0 and skey = Merging.key e in
          List.iter
            (fun label ->
              let results =
                List.map
                  (fun (r : Transition.result) -> r.Transition.state)
                  (Transition.combine ~t0 ?dup_cap ctx label children merging)
              in
              (match record groups (label, proj, tkey) results with
              | Some same ->
                t.repeats <- t.repeats + 1;
                if not same then t.mismatches <- t.mismatches + 1
              | None -> ());
              if record sorted (label, proj, skey) results = Some false then
                t.sorted_mismatches <- t.sorted_mismatches + 1;
              List.iter add results)
            labels
        end)
  in
  let fresh_from = ref 0 in
  for _ = 1 to rounds do
    let pool = Array.of_list (List.rev !states) in
    let n = Array.length pool in
    let combos = ref 0 in
    let rec go combo pos lo has_fresh =
      if pos > 0 && has_fresh then begin
        incr combos;
        if !combos > max_combos then raise Enough;
        apply (Array.of_list (List.rev_map (fun i -> pool.(i)) combo))
      end;
      if pos < width then
        for i = lo to n - 1 do
          go (i :: combo) (pos + 1) i (has_fresh || i >= !fresh_from)
        done
    in
    (try go [] 0 0 false with Enough -> ());
    fresh_from := n
  done;
  t

let prop_key_sufficient =
  let arb =
    QCheck.pair
      (Gen_helpers.arb_node_cfg Gen_helpers.full_cfg)
      (QCheck.make
         ~print:(fun (t0, cap) ->
           Printf.sprintf "t0=%d dup_cap=%s" t0
             (match cap with None -> "-" | Some c -> string_of_int c))
         QCheck.Gen.(
           pair (oneofl [ 1; 2; 3; 6 ]) (oneofl [ None; Some 1; Some 2 ])))
  in
  Gen_helpers.qtest ~count:40 "equal transition keys give equal states" arb
    (fun (phi, (t0, dup_cap)) ->
      let m = automaton phi in
      let t =
        explore ~t0 ?dup_cap ~merge_budget:5 ~width:2 ~rounds:2
          ~max_combos:150 m
      in
      if t.mismatches > 0 then
        QCheck.Test.fail_reportf "%d of %d repeated transitions differ"
          t.mismatches t.repeats;
      true)

(* reg_alternation's unsatisfiable instance under the default options
   (t0 = 6) has mergings with more than t0 classes whose sorted keys are
   equal but whose truncations break ties between classes differently:
   there, keying on the sorted key alone returns wrong states, and the
   transition key must not. Built at module initialisation, like
   t_bitv's pins, so its labels' interned order is fixed per binary. *)
let reg_alt_unsat = Families.reg_alternation ~sat:false ()

let test_reg_alternation () =
  let t =
    explore ~t0:6 ~dup_cap:2 ~merge_budget:5 ~width:3 ~rounds:4
      ~max_combos:400 (automaton reg_alt_unsat)
  in
  Alcotest.(check bool) "transitions repeat" true (t.repeats > 0);
  Alcotest.(check int) "repeats returning other states" 0 t.mismatches;
  Alcotest.(check bool) "the sorted key alone is not enough here" true
    (t.sorted_mismatches > 0)

let data_chain_unsat_3 = Families.data_chain ~sat:false 3

(* The general engine on the automaton and configuration [Sat.decide]
   gives it ([Sat.general_search]), called directly: [decide] answers
   data_chain unsat 3 from its data-free relaxation before the engine
   runs. *)
let engine options phi =
  let m, config = Sat.general_search ~options phi in
  let a = Emptiness.check ~config m in
  (a.outcome, a.stats)

(* [should_stop] fires on its [n]-th poll. The engine polls at every
   transition, replayed or not, and every 256 mergings walked, so the
   counts at the stop are those of the engine without a memo. *)
let test_deadline_on_replay () =
  List.iter
    (fun (n, states, transitions, mergings) ->
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls >= n
      in
      let options =
        Sat.Options.(default |> with_should_stop (Some stop))
      in
      let outcome, st = engine options data_chain_unsat_3 in
      let name = Printf.sprintf "poll %d" n in
      Alcotest.(check string) (name ^ " verdict")
        ("unknown " ^ Emptiness.deadline_exceeded)
        (match outcome with
        | Emptiness.Resource_limit why -> "unknown " ^ why
        | _ -> "decided");
      Alcotest.(check (list int)) (name ^ " states/transitions/mergings")
        [ states; transitions; mergings ]
        [ st.Emptiness.n_states; st.Emptiness.n_transitions;
          st.Emptiness.n_mergings ])
    [ (1, 0, 0, 0);
      (2, 1, 1, 1);
      (10, 5, 9, 12);
      (100, 42, 99, 116);
      (1000, 79, 990, 2508);
      (5000, 1118, 4935, 16552);
      (20000, 1417, 19850, 38208)
    ]

(* The replay counter: most of this search's transitions repeat an
   earlier one. *)
let test_replay_counter () =
  let _, seq =
    engine Sat.Options.(default |> with_max_transitions 20_000)
      data_chain_unsat_3
  in
  Alcotest.(check bool) "most transitions replayed" true
    (2 * seq.Emptiness.n_replayed > seq.Emptiness.n_transitions);
  Alcotest.(check bool) "some transitions applied" true
    (seq.Emptiness.n_replayed < seq.Emptiness.n_transitions)

let suite =
  ( "memo",
    [ prop_key_sufficient;
      Alcotest.test_case "reg_alternation under t0 = 6" `Quick
        test_reg_alternation;
      Alcotest.test_case "deadline on the replay path" `Quick
        test_deadline_on_replay;
      Alcotest.test_case "replay counter" `Quick test_replay_counter
    ] )
