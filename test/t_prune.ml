(* Pruned-vs-exact agreement: subsumption pruning (the profile
   quotient, plus the antichain dominance tier when the monotone gate
   opens) must never change the verdict of a search that completes
   within its budgets, and must never *grow* the explored state set of
   a search that no budget stopped (with the dominance tier open: of a
   search that saturated; see [agree]). Certificate runs must force the
   exact engine regardless of the [prune] flag — the basis is the
   certificate — and the resulting certificates must still pass the
   independent checker.

   These properties are what justifies pruning being on by default and
   excluded from the service cache key (DESIGN.md, "Subsumption
   pruning"). *)

module Sat = Xpds_decision.Sat
module Emptiness = Xpds_decision.Emptiness
module Ext_state = Xpds_decision.Ext_state
module Cert = Xpds_cert.Cert
module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label

let gen_labels = List.map Label.of_string Gen_helpers.default_labels

let base_options =
  Sat.Options.(
    default |> with_max_states 2_000 |> with_max_transitions 30_000
    |> with_extra_labels gen_labels)

let decide_with ?(options = base_options) ~prune phi =
  Sat.decide ~options:(Sat.Options.with_prune prune options) phi

let verdict_name (v : Sat.verdict) =
  match v with
  | Sat.Sat _ -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unsat_bounded _ -> "unsat_bounded"
  | Sat.Unknown _ -> "unknown"

let n_states (r : Sat.report) = r.Sat.stats.Emptiness.n_states

(* Agreement on one formula. When the exact search is conclusive the
   pruned one must reach the same verdict (witnesses may differ — a
   pruned provenance can thread through a representative — but both
   are independently verified by [Options.verify]). An exact [Unknown]
   is a fired budget; the pruned run reallocates that budget and may
   legitimately land elsewhere (a pruned [Sat] still carries a verified
   witness), so two definite verdicts never contradict.

   State-count monotonicity (pruning never grows the explored set) is
   asserted unless a budget fired in either run: a budget stops the
   search mid-way, and the pruned engine enumerates other combos than
   the exact one on the way there, so its state count at that point
   need not be smaller (the first pinned case below). With the
   dominance tier open, retroactive evictions reorder the enumeration
   enough that the same holds of a search stopped by its first
   accepting state (the second pinned case): [~witness_stops:true]
   exempts [Sat]/[Sat] runs there, and only there. *)
let budget_fired (r : Sat.report) =
  match r.Sat.verdict with Sat.Unknown _ -> true | _ -> false

let found_witness (r : Sat.report) =
  match r.Sat.verdict with Sat.Sat _ -> true | _ -> false

let agree ?options ?(witness_stops = false) phi =
  let pruned = decide_with ?options ~prune:true phi in
  let exact = decide_with ?options ~prune:false phi in
  if
    (not (budget_fired exact))
    && verdict_name pruned.Sat.verdict <> verdict_name exact.Sat.verdict
  then
    QCheck.Test.fail_reportf "verdicts differ: pruned %s, exact %s"
      (verdict_name pruned.Sat.verdict)
      (verdict_name exact.Sat.verdict);
  (match pruned.Sat.verdict with
  | Sat.Sat _ ->
    if pruned.Sat.witness_verified <> Some true then
      QCheck.Test.fail_report "pruned witness failed verification"
  | _ -> ());
  let monotone =
    not
      (budget_fired pruned || budget_fired exact
      || (witness_stops && found_witness pruned && found_witness exact))
  in
  if monotone && n_states pruned > n_states exact then
    QCheck.Test.fail_reportf "pruned explored more states: %d > %d"
      (n_states pruned) (n_states exact);
  true

let prop_agree_star_free =
  Gen_helpers.qtest ~count:60 "pruned = exact (star-free)"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi -> agree phi)

let prop_agree_reg =
  Gen_helpers.qtest ~count:40 "pruned = exact (regXPath)"
    (Gen_helpers.arb_node_cfg Gen_helpers.full_cfg)
    (fun phi -> agree phi)

(* Same agreement with the practical caps lifted (dup_cap and
   merge_budget [None], paper t0): this is the configuration where the
   monotone gate can open and the antichain dominance tier — with its
   retroactive basis evictions — actually runs. *)
let mono_options =
  Sat.Options.(
    base_options |> with_t0 None |> with_dup_cap None
    |> with_merge_budget None |> with_max_transitions 10_000)

let prop_agree_mono =
  Gen_helpers.qtest ~count:200 "pruned = exact (dominance tier open)"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi -> agree ~options:mono_options ~witness_stops:true phi)

(* Formulas QCheck drew for the property above where the pruned engine
   explores one state more than the exact one: with seed 875383085 both
   stop on the merging budget, with seed 6 both stop on a witness. *)
let test_early_stop_pinned () =
  List.iter
    (fun (text, stopped) ->
      let phi = Xpds_xpath.Parser.node_of_string_exn text in
      let pruned = decide_with ~options:mono_options ~prune:true phi in
      let exact = decide_with ~options:mono_options ~prune:false phi in
      Alcotest.(check (pair string string))
        (text ^ ": verdicts") (stopped, stopped)
        (verdict_name pruned.Sat.verdict, verdict_name exact.Sat.verdict);
      Alcotest.(check bool) (text ^ ": pruned explored more") true
        (n_states pruned > n_states exact);
      Alcotest.(check bool) (text ^ ": agreement holds") true
        (agree ~options:mono_options ~witness_stops:true phi))
    [ ( "([true]desc)[eps != eps][~false | down = eps] = \
         (desc|(eps|down)|eps[false])",
        "unknown" );
      ("down = [down = eps]down/(desc/eps)/down/desc", "sat")
    ]

(* Exact runs do no pruning work (zero drops and evictions; the
   surviving frontier is the whole admitted set); pruned runs report a
   frontier no larger than the admitted set. *)
let prop_counter_sanity =
  Gen_helpers.qtest ~count:40 "pruning counters are coherent"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi ->
      let pruned = decide_with ~prune:true phi in
      let exact = decide_with ~prune:false phi in
      let ep = exact.Sat.stats.Emptiness.prune in
      ep.Emptiness.subsumed_pruned = 0
      && ep.Emptiness.basis_evicted = 0
      && (ep.Emptiness.antichain_size = 0 (* data-free fast path *)
         || ep.Emptiness.antichain_size = n_states exact)
      && pruned.Sat.stats.Emptiness.prune.Emptiness.antichain_size
         <= n_states pruned)

(* Certificate mode forces the exact engine: identical reports (same
   verdict payloads, same exploration counters, same basis state for
   state) whatever the [prune] flag says, zero pruning counters, and a
   certificate the independent checker accepts. *)
let verdict_repr (v : Sat.verdict) =
  match v with
  | Sat.Sat w -> "sat " ^ Data_tree.to_string w
  | Sat.Unsat -> "unsat"
  | Sat.Unsat_bounded why -> "unsat_bounded " ^ why
  | Sat.Unknown why -> "unknown " ^ why

let basis_of (r : Sat.report) =
  match r.Sat.cert_seed with
  | Some seed -> seed.Sat.cs_basis
  | None -> None

let prop_certificate_forces_exact =
  Gen_helpers.qtest ~count:30 "certificate runs are exact"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi ->
      let options = Sat.Options.with_certificate true base_options in
      let on = decide_with ~options ~prune:true phi in
      let off = decide_with ~options ~prune:false phi in
      if verdict_repr on.Sat.verdict <> verdict_repr off.Sat.verdict then
        QCheck.Test.fail_reportf "certificate verdicts differ: %s vs %s"
          (verdict_repr on.Sat.verdict)
          (verdict_repr off.Sat.verdict);
      let pr = on.Sat.stats.Emptiness.prune in
      if pr.Emptiness.subsumed_pruned <> 0 || pr.Emptiness.basis_evicted <> 0
      then
        QCheck.Test.fail_report
          "certificate run reported pruning activity";
      (match (basis_of on, basis_of off) with
      | None, None -> ()
      | Some a, Some b
        when Array.length a = Array.length b
             && Array.for_all2 Ext_state.equal a b ->
        ()
      | _ -> QCheck.Test.fail_report "certificate bases differ");
      (* Every emitted certificate must survive the independent naive
         checker — pruning must not be able to leak into the basis. *)
      (match Cert.of_report on with
      | Ok cert -> (
        match Cert.check cert with
        | Ok _ -> ()
        | Error e ->
          QCheck.Test.fail_reportf "certificate rejected: %s" e)
      | Error _ ->
        (* No certificate for this outcome class (e.g. a budget
           [Unknown]) — nothing to check. *)
        ());
      true)

let suite =
  ( "prune",
    [ prop_agree_star_free;
      prop_agree_reg;
      prop_agree_mono;
      Alcotest.test_case "early-stopped runs (pinned seeds)" `Quick
        test_early_stop_pinned;
      prop_counter_sanity;
      prop_certificate_forces_exact
    ] )
