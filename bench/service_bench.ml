(* Service benchmark and serving-layer smoke.

   Full mode: cold batch, its agreement with one-at-a-time solves, warm
   (cached) batch and deadline behaviour over the shared corpus.
   Emits BENCH_service.json (or [out]) plus a per-request trace sample
   in BENCH_service_trace.json — the phase breakdown CI uploads as an
   artifact.

   [run ~quick:true] is the CI smoke mode for the hardened serving
   layer: verdicts by construction on a batch, a forced
   deadline (monotonic, admission-anchored, uncached), a 0 ms deadline
   (deterministic), a poisoned batch item (crash isolation: the rest of
   the batch must survive), a degraded-bounds retry, and a
   malformed-input sweep through the NDJSON entry point (the serve loop
   must answer {"error":..}, never die). Returns 0 on success, 1 on any
   violated expectation.

   Run with: xpds bench service [--quick]
         or: dune exec bench/main.exe -- service *)

module Service = Xpds.Service
module Trace = Xpds.Trace
module Json = Xpds.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verdict_of (r : Service.response) =
  Service.verdict_name r.Service.report.Xpds.Sat.verdict

let verdict_counts responses =
  let count name =
    List.length (List.filter (fun r -> verdict_of r = name) responses)
  in
  List.map
    (fun n -> (n, Json.Num (float_of_int (count n))))
    [ "sat"; "unsat"; "unsat_bounded"; "unknown" ]

let trace_out out =
  (if Filename.check_suffix out ".json" then Filename.chop_suffix out ".json"
   else out)
  ^ "_trace.json"

let trace_sample (resps : Service.response list) =
  Json.Arr
    (List.map
       (fun (r : Service.response) ->
         Json.Obj
           [ ("id", Json.Str r.Service.id);
             ("verdict", Json.Str (verdict_of r));
             ("cached", Json.Bool r.Service.cached);
             ("trace", Trace.to_json r.Service.trace)
           ])
       resps)

(* A service with the resource budgets lifted, so only the deadline can
   stop the saturation of a hard unsat formula. *)
let unbounded_svc ?(retry_degraded = false) () =
  Service.create
    Service.Config.(
      default
      |> with_max_states 100_000_000
      |> with_max_transitions 100_000_000
      |> with_retry_degraded retry_degraded)

let full ~out () =
  let reqs = Corpus.requests (Corpus.formulas ()) in
  let n = List.length reqs in
  let cores = Domain.recommended_domain_count () in
  Format.printf "service bench: %d formulas, %d core(s)@." n cores;

  (* Cold batch on a fresh service. *)
  let svc = Service.create Service.Config.default in
  let cold, cold_s = time (fun () -> Service.solve_batch svc reqs) in
  Format.printf "  cold batch: %.2f s@." cold_s;
  (* The batch must agree with one-at-a-time solves on a fresh service:
     same ids, same verdicts. *)
  let one_svc = Service.create Service.Config.default in
  let one = List.map (Corpus.solve one_svc) reqs in
  let agree =
    List.for_all2
      (fun (a : Service.response) (b : Service.response) ->
        a.Service.id = b.Service.id && verdict_of a = verdict_of b)
      cold one
  in
  Format.printf "  batch agrees with one-at-a-time solves: %b@." agree;

  (* Warm re-run of the same batch: everything cacheable is a hit. *)
  Service.reset_metrics svc;
  let warm, warm_s = time (fun () -> Service.solve_batch svc reqs) in
  let m = Service.metrics svc in
  let hit_rate =
    float_of_int m.Xpds.Service_metrics.cache_hits /. float_of_int n
  in
  Format.printf "  warm re-run: %.3f s (hit rate %.2f)@." warm_s hit_rate;

  (* Deadline: an unsat saturation with the budgets lifted cannot finish
     in 150 ms, so the verdict must be Unknown "deadline exceeded". *)
  let hard_svc = unbounded_svc () in
  let hard, hard_s =
    time (fun () ->
        Corpus.solve hard_svc
          (Corpus.sat_request ~timeout_ms:150. "hard"
             (Families.desc_data ~sat:false 3)))
  in
  let hard_verdict = verdict_of hard in
  Format.printf "  deadline probe: %s after %.0f ms@." hard_verdict
    (hard_s *. 1000.);

  (* Phase breakdown artifact: the first few cold responses plus the
     deadline probe (queue/fixpoint-heavy and deadline-shaped traces). *)
  Report.write_raw ~out:(trace_out out)
    (trace_sample
       (List.filteri (fun i _ -> i < 8) cold
       @ List.filteri (fun i _ -> i < 2) warm
       @ [ hard ]));

  let ok =
    Report.write ~out ~bench:"service" ~mode:"full"
      ~gates:[ ("verdicts_agree", agree) ]
      [ ("formulas", Json.Num (float_of_int n));
        ("cores", Json.Num (float_of_int cores));
        ( "cold",
          Json.Obj
            [ ("sequential_s", Json.Num cold_s);
              ( "sequential_throughput_per_s",
                Json.Num (float_of_int n /. cold_s) );
              ("verdicts_agree", Json.Bool agree)
            ] );
        ( "warm_cache",
          Json.Obj
            [ ("rerun_s", Json.Num warm_s);
              ("speedup", Json.Num (cold_s /. warm_s));
              ("cache_hit_rate", Json.Num hit_rate)
            ] );
        ( "deadline",
          Json.Obj
            [ ("timeout_ms", Json.Num 150.);
              ("verdict", Json.Str hard_verdict);
              ("elapsed_ms", Json.Num (hard_s *. 1000.))
            ] );
        ("verdicts", Json.Obj (verdict_counts cold))
      ]
  in
  if ok then 0 else 1

(* --- CI smoke mode --- *)

let smoke ~out () =
  let checks = ref [] in
  let check name ok =
    Format.printf "  %-38s %s@." name (if ok then "ok" else "FAIL");
    checks := (name, ok) :: !checks
  in

  (* 1. Verdicts by construction, solved as a batch (in-batch dedup
     under per-item crash isolation). *)
  let cases =
    [ ("child_chain_sat_3", Families.child_chain ~sat:true 3, `Sat);
      ("child_chain_unsat_2", Families.child_chain ~sat:false 2, `Unsat);
      ("data_chain_sat_2", Families.data_chain ~sat:true 2, `Sat);
      ("data_chain_unsat_2", Families.data_chain ~sat:false 2, `Unsat);
      ("desc_data_sat_1", Families.desc_data ~sat:true 1, `Sat);
      (* duplicate key: must be served as an in-batch hit *)
      ("child_chain_sat_3_dup", Families.child_chain ~sat:true 3, `Sat)
    ]
  in
  let svc = Service.create Service.Config.default in
  let resps =
    Service.solve_batch svc
      (List.map
         (fun (name, phi, _) ->
           Corpus.sat_request name phi)
         cases)
  in
  List.iter2
    (fun (name, _, expect) resp ->
      let ok =
        match (expect, verdict_of resp) with
        | `Sat, "sat" -> true
        | `Unsat, ("unsat" | "unsat_bounded") -> true
        | _ -> false
      in
      check name ok)
    cases resps;
  check "in_batch_dedup_hit"
    (List.exists (fun r -> r.Service.cached) resps);

  (* 2. Forced deadline: monotonic, admission-anchored, honest and
     uncached. *)
  let hard_svc = unbounded_svc () in
  let hard =
    Corpus.solve hard_svc
      (Corpus.sat_request ~timeout_ms:150. "hard" (Families.desc_data ~sat:false 3))
  in
  check "forced_timeout_unknown" (verdict_of hard = "unknown");
  check "forced_timeout_uncached" (Service.cache_length hard_svc = 0);
  let dm = Service.metrics hard_svc in
  check "forced_timeout_counted"
    (dm.Xpds.Service_metrics.deadline_timeouts = 1);

  (* 3. A 0 ms budget fires deterministically at admission. *)
  let zero =
    Corpus.solve hard_svc
      (Corpus.sat_request ~timeout_ms:0. "zero" (Families.child_chain ~sat:true 2))
  in
  check "zero_timeout_unknown" (verdict_of zero = "unknown");
  check "zero_timeout_uncached" (Service.cache_length hard_svc = 0);

  (* 4. Crash isolation: one poisoned item, the rest of the batch keeps
     its verdicts. *)
  let crash_svc = Service.create Service.Config.default in
  Service.Chaos.set crash_svc
    (Some (fun id -> if id = "poison" then failwith "chaos"));
  let crash_resps =
    Service.solve_batch crash_svc
      [ Corpus.sat_request "ok1" (Families.child_chain ~sat:true 2);
        Corpus.sat_request "poison" (Families.data_chain ~sat:true 2);
        Corpus.sat_request "ok2" (Families.child_chain ~sat:false 2)
      ]
  in
  (match crash_resps with
  | [ a; b; c ] ->
    check "crash_isolated_item" (verdict_of b = "unknown");
    check "crash_rest_of_batch_survives"
      (verdict_of a = "sat"
      && (verdict_of c = "unsat" || verdict_of c = "unsat_bounded"));
    check "crash_counted"
      ((Service.metrics crash_svc).Xpds.Service_metrics.crashes = 1)
  | _ -> check "crash_batch_arity" false);
  Service.Chaos.set crash_svc None;

  (* 5. Graceful degradation: a budget too small to conclude, retried
     once under degraded bounds. *)
  let tiny_svc =
    Service.create
      Service.Config.(
        default |> with_max_states 10 |> with_max_transitions 40
        |> with_retry_degraded true)
  in
  let degraded =
    Corpus.solve tiny_svc
      (Corpus.sat_request "degraded" (Families.desc_data ~sat:false 1))
  in
  check "degraded_retry_flagged" degraded.Service.degraded;
  check "degraded_retry_counted"
    ((Service.metrics tiny_svc).Xpds.Service_metrics.degraded_retries = 1);

  (* 6. Malformed input through the NDJSON entry point: structured
     errors, never an escaped exception. *)
  let garbage =
    [ "this is not json";
      "{\"id\":1}";
      "{\"formula\": \"<down[\"}";
      "{\"formula\": 42}";
      "[]";
      "{\"formula\": \"<down[a]>\", \"timeout_ms\": \"soon\"}"
    ]
  in
  let is_error line =
    match Json.parse line with
    | Ok v -> Json.member "error" v <> None
    | Error _ -> false
  in
  check "malformed_lines_answer_error"
    (List.for_all
       (fun l -> is_error (Service.handle_line svc l))
       (List.filteri (fun i _ -> i < 5) garbage));
  (* the last one parses (timeout_ms is just ignored as non-numeric) *)
  check "garbage_timeout_still_solves"
    (not (is_error (Service.handle_line svc (List.nth garbage 5))));
  let good = {|{"id":"g1","formula":"<down[a]>"}|} in
  let good_line = Service.handle_line ~trace:true svc good in
  check "good_line_solves"
    (match Json.parse good_line with
    | Ok v -> (
      match Json.member "verdict" v with
      | Some (Json.Str "sat") -> Json.member "trace" v <> None
      | _ -> false)
    | Error _ -> false);

  (* Trace artifact: the smoke batch + the deadline and degraded
     probes. *)
  Report.write_raw ~out:(trace_out out)
    (trace_sample (resps @ [ hard; zero; degraded ]));

  let results = List.rev !checks in
  let failed = List.filter (fun (_, ok) -> not ok) results in
  Format.printf "  %d/%d ok@."
    (List.length results - List.length failed)
    (List.length results);
  let ok =
    Report.write ~out ~bench:"service" ~mode:"quick"
      ~gates:[ ("smoke_checks", failed = []) ]
      [ ("checks", Json.Num (float_of_int (List.length results)));
        ("failed", Json.Num (float_of_int (List.length failed)));
        ( "results",
          Json.Obj
            (List.map (fun (name, ok) -> (name, Json.Bool ok)) results) )
      ]
  in
  if ok then 0 else 1

let run ?(quick = false) ?(out = "BENCH_service.json") () =
  Format.printf "service bench%s:@." (if quick then " (quick)" else "");
  if quick then smoke ~out () else full ~out ()
