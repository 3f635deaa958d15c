(* Emptiness-engine benchmark: cold sequential wall-time over the
   shared corpus, with engine throughput (states/s, mergings/s,
   transitions/s), a comparison against the recorded PR-1 baseline, and
   a pruned-vs-exact leg (subsumption pruning on vs off) recording the
   pruning counters and both wall times. Emits BENCH_emptiness.json
   (or [out]).

   [run ~quick:true] is the CI smoke mode: a handful of small families
   under a tight transition budget, asserting the verdict each family
   guarantees by construction, plus a pruned-vs-exact agreement gate
   and a transition-memo gate. Returns 0 on success, 1
   on any verdict mismatch (or a pruned run slower than exact beyond
   tolerance, or a memo that replays nothing) — a kernel regression
   that flips a verdict fails the step rather than silently skewing the
   numbers. Both modes print, per family, how many transitions the
   transition memo replayed.

   Run with: xpds bench emptiness [--quick] [--no-prune]
         or: dune exec bench/main.exe -- emptiness *)

module Service = Xpds.Service
module Sat = Xpds.Sat
module Emptiness = Xpds.Emptiness
module Json = Xpds.Json

(* BENCH_service.json cold sequential over the same corpus, recorded at
   PR 1 on one core. The denominator of the reported speedup. *)
let pr1_baseline_s = 119.235

let verdict_of (r : Service.response) =
  Service.verdict_name r.Service.report.Sat.verdict

(* One cold sequential pass over the corpus under the given pruning
   mode; returns wall time, summed engine and pruning counters, the
   per-request verdicts (in corpus order, for agreement checks) and the
   per-request stats. *)
let corpus_pass ~prune () =
  let reqs = Corpus.requests (Corpus.formulas ()) in
  let svc =
    Service.create Service.Config.(default |> with_prune prune)
  in
  let t0 = Unix.gettimeofday () in
  let resps = Service.solve_batch svc reqs in
  let wall = Unix.gettimeofday () -. t0 in
  let states, transitions, mergings, subsumed, evicted, antichain =
    List.fold_left
      (fun (s, t, m, sp, be, ac) (r : Service.response) ->
        let st = r.Service.report.Sat.stats in
        let pr = st.Emptiness.prune in
        ( s + st.Emptiness.n_states,
          t + st.Emptiness.n_transitions,
          m + st.Emptiness.n_mergings,
          sp + pr.Emptiness.subsumed_pruned,
          be + pr.Emptiness.basis_evicted,
          ac + pr.Emptiness.antichain_size ))
      (0, 0, 0, 0, 0, 0) resps
  in
  ( wall,
    (states, transitions, mergings),
    (subsumed, evicted, antichain),
    List.map verdict_of resps,
    List.map (fun (r : Service.response) -> r.Service.report.Sat.stats) resps
  )

(* Transitions and those the transition memo replayed, summed per
   corpus family (in first-appearance order). *)
let replayed_by_family stats =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter2
    (fun fam (st : Emptiness.stats) ->
      let t, r =
        match Hashtbl.find_opt tbl fam with
        | Some v -> v
        | None ->
          order := fam :: !order;
          (0, 0)
      in
      Hashtbl.replace tbl fam
        (t + st.Emptiness.n_transitions, r + st.Emptiness.n_replayed))
    (Corpus.family_names ()) stats;
  List.rev_map (fun fam -> (fam, Hashtbl.find tbl fam)) !order

let full ~out ~prune () =
  let n = List.length (Corpus.formulas ()) in
  Format.printf "emptiness bench: %d formulas, cold%s@." n
    (if prune then "" else ", pruning off");
  let wall, (states, transitions, mergings), (subsumed, evicted, antichain),
      verdicts, stats =
    corpus_pass ~prune ()
  in
  let by_family = replayed_by_family stats in
  let replayed = List.fold_left (fun a (_, (_, r)) -> a + r) 0 by_family in
  let per_s x = float_of_int x /. wall in
  let speedup = pr1_baseline_s /. wall in
  Format.printf "  cold: %.2f s (%.1f formulas/s)@." wall
    (float_of_int n /. wall);
  Format.printf "  engine: %d states, %d transitions, %d mergings@."
    states transitions mergings;
  Format.printf "  transition memo: %d of %d transitions replayed@." replayed
    transitions;
  List.iter
    (fun (fam, (t, r)) ->
      Format.printf "    %-16s %8d of %8d replayed@." fam r t)
    by_family;
  Format.printf "  throughput: %.0f states/s, %.0f mergings/s@."
    (per_s states) (per_s mergings);
  if prune then
    Format.printf
      "  pruning: %d subsumed, %d evicted, %d antichain states@."
      subsumed evicted antichain;
  Format.printf "  vs PR-1 baseline %.3f s: %.2fx@." pr1_baseline_s
    speedup;
  (* The exact-engine control leg: same corpus with pruning off. The
     verdicts must agree request-for-request (pruning is sound), and
     both wall times land in the JSON so the recorded speedup is a
     measurement, not a claim. Skipped when the caller already asked
     for the exact engine. *)
  let exact_fields, agree =
    if not prune then ([], true)
    else begin
      let exact_wall, _, _, exact_verdicts, _ =
        corpus_pass ~prune:false ()
      in
      let agree = verdicts = exact_verdicts in
      Format.printf "  exact engine: %.2f s (pruned is %.2fx)  %s@."
        exact_wall (exact_wall /. wall)
        (if agree then "verdicts agree" else "VERDICTS DISAGREE");
      ( [ ("exact_wall_s", Json.Num exact_wall);
          ("pruned_speedup_vs_exact", Json.Num (exact_wall /. wall));
          ("verdicts_agree", Json.Bool agree)
        ],
        agree )
    end
  in
  let ok =
    Report.write ~out ~bench:"emptiness" ~mode:"full" ~wall_s:wall
      ~gates:[ ("verdicts_agree", agree) ]
      [ ("prune", Json.Bool prune);
        ("formulas", Json.Num (float_of_int n));
        ("cold_wall_s", Json.Num wall);
        ("formulas_per_s", Json.Num (float_of_int n /. wall));
        ( "engine",
          Json.Obj
            [ ("states", Json.Num (float_of_int states));
              ("transitions", Json.Num (float_of_int transitions));
              ("mergings", Json.Num (float_of_int mergings));
              ("replayed", Json.Num (float_of_int replayed));
              ("states_per_s", Json.Num (per_s states));
              ("transitions_per_s", Json.Num (per_s transitions));
              ("mergings_per_s", Json.Num (per_s mergings))
            ] );
        ( "replayed_by_family",
          Json.Obj
            (List.map
               (fun (fam, (t, r)) ->
                 ( fam,
                   Json.Obj
                     [ ("transitions", Json.Num (float_of_int t));
                       ("replayed", Json.Num (float_of_int r))
                     ] ))
               by_family) );
        ( "pruning",
          Json.Obj
            ([ ("subsumed_pruned", Json.Num (float_of_int subsumed));
               ("basis_evicted", Json.Num (float_of_int evicted));
               ("antichain_size", Json.Num (float_of_int antichain))
             ]
            @ exact_fields) );
        ( "baseline",
          Json.Obj
            [ ("pr1_cold_sequential_s", Json.Num pr1_baseline_s);
              ("speedup", Json.Num speedup)
            ] );
        ( "verdicts",
          Json.Obj
            (let count name =
               List.length (List.filter (( = ) name) verdicts)
             in
             List.map
               (fun n -> (n, Json.Num (float_of_int (count n))))
               [ "sat"; "unsat"; "unsat_bounded"; "unknown" ]) )
      ]
  in
  if ok then 0 else 1

(* Small families only (each solves in milliseconds) under a tight
   transition budget; every family's verdict is known by construction —
   [`Sat] must come back "sat", [`Unsat] must come back "unsat" or
   "unsat_bounded" (the engine is bounded), and anything else is a
   regression. *)
let quick_cases () =
  [ ("child_chain_sat_3", Families.child_chain ~sat:true 3, `Sat);
    ("child_chain_unsat_2", Families.child_chain ~sat:false 2, `Unsat);
    ("data_chain_sat_2", Families.data_chain ~sat:true 2, `Sat);
    ("data_chain_sat_3", Families.data_chain ~sat:true 3, `Sat);
    ("data_chain_unsat_2", Families.data_chain ~sat:false 2, `Unsat);
    ("desc_data_sat_1", Families.desc_data ~sat:true 1, `Sat);
    ("root_data_2", Families.root_data 2, `Sat);
    ("reg_alt_sat", Families.reg_alternation ~sat:true (), `Sat);
    ("mixed_axes_sat_2", Families.mixed_axes ~sat:true 2, `Sat);
    ("mixed_axes_unsat_2", Families.mixed_axes ~sat:false 2, `Unsat)
  ]

(* Pruned-vs-exact agreement and timing on the heavier quick families:
   the same formula decided with subsumption pruning on and off must
   return the same verdict, pruning must never *grow* the explored
   state set, and the pruned total must not be slower than exact beyond
   a noise tolerance (these are millisecond instances, so the gate is
   on the summed wall, not per case). Any violation fails the run. *)
let pruned_vs_exact () =
  let cases =
    [ ("data_chain_sat_4", Families.data_chain ~sat:true 4);
      ("data_chain_unsat_3", Families.data_chain ~sat:false 3);
      ("mixed_axes_sat_3", Families.mixed_axes ~sat:true 3);
      ("reg_alt_sat", Families.reg_alternation ~sat:true ())
    ]
  in
  let decide_with prune phi =
    let options = Sat.Options.(default |> with_prune prune) in
    let t0 = Unix.gettimeofday () in
    let report = Sat.decide ~options phi in
    (report, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  Format.printf "  pruned-vs-exact agreement:@.";
  let rows =
    List.map
      (fun (name, phi) ->
        let pruned, pruned_ms = decide_with true phi in
        let exact, exact_ms = decide_with false phi in
        let v (r : Sat.report) = Service.verdict_name r.Sat.verdict in
        let states (r : Sat.report) =
          r.Sat.stats.Emptiness.n_states
        in
        let pr = pruned.Sat.stats.Emptiness.prune in
        let ok =
          v pruned = v exact && states pruned <= states exact
        in
        Format.printf
          "    %-22s pruned %.1f ms (st=%d), exact %.1f ms (st=%d)  %s@."
          name pruned_ms (states pruned) exact_ms (states exact)
          (if ok then "agree" else "DISAGREE");
        ( name,
          Json.Obj
            [ ("verdict", Json.Str (v pruned));
              ("pruned_ms", Json.Num pruned_ms);
              ("exact_ms", Json.Num exact_ms);
              ("pruned_states", Json.Num (float_of_int (states pruned)));
              ("exact_states", Json.Num (float_of_int (states exact)));
              ( "subsumed_pruned",
                Json.Num (float_of_int pr.Emptiness.subsumed_pruned) );
              ("agree", Json.Bool ok)
            ],
          ok,
          (pruned_ms, exact_ms) ))
      cases
  in
  let pruned_total =
    List.fold_left (fun a (_, _, _, (p, _)) -> a +. p) 0. rows
  in
  let exact_total =
    List.fold_left (fun a (_, _, _, (_, e)) -> a +. e) 0. rows
  in
  (* 1.25x: absorbs timer noise on millisecond cases while still
     catching a pruning overhead regression (the win on real instances
     is measured by the full mode). *)
  let fast_enough = pruned_total <= exact_total *. 1.25 in
  Format.printf
    "    totals: pruned %.1f ms, exact %.1f ms  %s@." pruned_total
    exact_total
    (if fast_enough then "ok" else "PRUNED SLOWER THAN EXACT");
  ( Json.Obj
      (List.map (fun (n, j, _, _) -> (n, j)) rows
      @ [ ("pruned_total_ms", Json.Num pruned_total);
          ("exact_total_ms", Json.Num exact_total);
          ("fast_enough", Json.Bool fast_enough)
        ]),
    List.for_all (fun (_, _, ok, _) -> ok) rows && fast_enough )

(* The transition memo on a hit-heavy search: most of data_chain
   unsat 3's transitions repeat an earlier one. A memo that never hits
   passes every verdict and agreement gate and only loses the speed, so
   this gate fails the run when nothing was replayed. At hard-solve's
   budget. *)
let memo_replays () =
  let options = Sat.Options.(default |> with_max_transitions 20_000) in
  let st =
    (Sat.decide ~options (Families.data_chain ~sat:false 3)).Sat.stats
  in
  let replayed = st.Emptiness.n_replayed in
  let ok = replayed > 0 in
  Format.printf
    "  transition memo: data_chain_unsat_3 replayed %d of %d transitions  \
     %s@."
    replayed st.Emptiness.n_transitions
    (if ok then "ok" else "NO REPLAYS");
  ( Json.Obj
      [ ("transitions", Json.Num (float_of_int st.Emptiness.n_transitions));
        ("replayed", Json.Num (float_of_int replayed));
        ("ok", Json.Bool ok)
      ],
    ok )

let smoke ~out ~prune () =
  let cases = quick_cases () in
  Format.printf "emptiness bench (quick): %d cases%s@."
    (List.length cases)
    (if prune then "" else ", pruning off");
  let svc =
    Service.create
      Service.Config.(
        default |> with_max_transitions 50_000 |> with_prune prune)
  in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun (name, phi, expect) ->
        let resp =
          Corpus.solve svc (Corpus.sat_request name phi)
        in
        let verdict = verdict_of resp in
        let ok =
          match (expect, verdict) with
          | `Sat, "sat" -> true
          | `Unsat, ("unsat" | "unsat_bounded") -> true
          | _ -> false
        in
        let st = resp.Service.report.Sat.stats in
        Format.printf "  %-22s %-14s %s  (%d of %d transitions replayed)@."
          name verdict
          (if ok then "ok" else "FAIL")
          st.Emptiness.n_replayed st.Emptiness.n_transitions;
        (name, verdict, ok, st.Emptiness.n_replayed))
      cases
  in
  let wall = Unix.gettimeofday () -. t0 in
  let failed = List.filter (fun (_, _, ok, _) -> not ok) results in
  Format.printf "  %d/%d ok in %.2f s@."
    (List.length results - List.length failed)
    (List.length results) wall;
  let prune_json, prune_ok = pruned_vs_exact () in
  let memo_json, memo_ok = memo_replays () in
  let ok =
    Report.write ~out ~bench:"emptiness" ~mode:"quick" ~wall_s:wall
      ~gates:
        [ ("family_verdicts", failed = []);
          ("pruned_vs_exact_agree", prune_ok);
          ("memo_replays", memo_ok)
        ]
      [ ("prune", Json.Bool prune);
        ("cases", Json.Num (float_of_int (List.length results)));
        ("failed", Json.Num (float_of_int (List.length failed)));
        ( "results",
          Json.Obj
            (List.map
               (fun (name, verdict, ok, replayed) ->
                 ( name,
                   Json.Obj
                     [ ("verdict", Json.Str verdict);
                       ("ok", Json.Bool ok);
                       ("replayed", Json.Num (float_of_int replayed))
                     ] ))
               results) );
        ("pruned_vs_exact", prune_json);
        ("memo_replays", memo_json)
      ]
  in
  if ok then 0 else 1

let run ?(quick = false) ?(out = "BENCH_emptiness.json") ?(prune = true) () =
  if quick then smoke ~out ~prune () else full ~out ~prune ()
