(* Tests for the solver service: LRU cache, JSON wire format, cache-key
   soundness, agreement of a shared service with fresh ones, deadlines. *)

module Service = Xpds_service.Service
module Request = Xpds_service.Request
module Lru = Xpds_service.Lru
(* [Json] is the standalone xpds_json library (unwrapped). *)
module Cache_key = Xpds_service.Cache_key
module Rewrite = Xpds_xpath.Rewrite
module Semantics = Xpds_xpath.Semantics
module Sat = Xpds_decision.Sat
module Emptiness = Xpds_decision.Emptiness

open Xpds_xpath.Ast
module B = Xpds_xpath.Build

(* --- LRU --- *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* "b" is now the LRU entry; adding "c" evicts it. *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "length" 2 (Lru.length c);
  (* Replacement keeps one entry per key. *)
  Lru.add c "c" 4;
  Alcotest.(check (option int)) "replaced" (Some 4) (Lru.find c "c");
  Alcotest.(check int) "length after replace" 2 (Lru.length c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c)

let test_lru_promotion () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* Touch "a": eviction order becomes b, c, a. *)
  ignore (Lru.find c "a");
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b evicted first" None (Lru.find c "b");
  Lru.add c "e" 5;
  Alcotest.(check (option int)) "c evicted second" None (Lru.find c "c");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a")

(* --- JSON --- *)

let test_json_roundtrip () =
  let cases =
    [ {|{"id":"r1","formula":"<down[a]>","timeout_ms":250}|};
      {|[1,-2.5,true,false,null,"x"]|};
      {|{"nested":{"a":[{}]},"s":"q\"uo\\te\nnl"}|}
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
        match Json.parse (Json.to_string v) with
        | Error e -> Alcotest.failf "reparse %s: %s" (Json.to_string v) e
        | Ok v' ->
          Alcotest.(check bool) ("roundtrip " ^ s) true (v = v')))
    cases;
  (match Json.parse {|{"a":1} trailing|} with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Json.parse {|{"u":"é"}|} with
  | Ok (Json.Obj [ ("u", Json.Str s) ]) ->
    Alcotest.(check string) "utf8 escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "\\u escape"

let test_request_parsing () =
  (match Request.of_line {|{"id":7,"formula":"<down[a]>"}|} with
  | Ok r ->
    Alcotest.(check string) "numeric id" "7" r.Request.id;
    Alcotest.(check bool) "no timeout" true (r.Request.timeout_ms = None)
  | Error e -> Alcotest.fail e);
  (match Request.of_line {|{"formula":"<down["}|} with
  | Ok _ -> Alcotest.fail "bad formula accepted"
  | Error _ -> ());
  match Request.of_line {|{"id":"x"}|} with
  | Ok _ -> Alcotest.fail "missing formula accepted"
  | Error _ -> ()

(* --- wire protocol versioning (docs/protocol.md) --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_protocol_versioning () =
  Alcotest.(check int) "this build speaks v1" 1 Service.protocol_version;
  (* An explicit matching version is accepted... *)
  (match
     Request.of_line {|{"v":1,"id":"a","formula":"<down[a]>"}|}
   with
  | Ok r -> Alcotest.(check string) "id" "a" r.Request.id
  | Error e -> Alcotest.failf "v:1 rejected: %s" e);
  (* ...an absent version means v1 (the pre-versioning format)... *)
  (match Request.of_line {|{"formula":"<down[a]>"}|} with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "absent v rejected: %s" e);
  (* ...and any other version is a structured error naming both
     sides. *)
  (match
     Request.of_line {|{"v":2,"id":"a","formula":"<down[a]>"}|}
   with
  | Ok _ -> Alcotest.fail "v:2 accepted"
  | Error e ->
    Alcotest.(check bool) "names the offered version" true
      (contains e "2");
    Alcotest.(check bool) "names the spoken version" true
      (contains e "v1"));
  (* The schema is closed: a field outside {v,id,formula,timeout_ms}
     is rejected, not silently dropped. *)
  match
    Request.of_line
      {|{"id":"a","formula":"<down[a]>","timeout":5}|}
  with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error e ->
    Alcotest.(check bool) "names the field" true
      (contains e "timeout")

let test_protocol_version_on_responses () =
  let svc = Service.create Service.Config.default in
  let check_v name line =
    match Json.parse line with
    | Error e -> Alcotest.failf "%s not JSON: %s" name e
    | Ok v ->
      Alcotest.(check bool) (name ^ " carries v:1") true
        (Json.member "v" v = Some (Json.Num 1.))
  in
  check_v "response"
    (Service.handle_line svc {|{"id":"r","formula":"<down[a]>"}|});
  check_v "error reply" (Service.handle_line svc "not json");
  check_v "error_to_json" (Service.error_to_json ~id:"x" "boom")

(* --- cache-key soundness --- *)

(* Random commutations/regroupings of the commutative connectives: the
   result must always canonicalize to the same representative. *)
let rec shuffle_node st phi =
  let flip = Random.State.bool st in
  match phi with
  | True | False | Lab _ -> phi
  | Not a -> Not (shuffle_node st a)
  | And (a, b) ->
    let a = shuffle_node st a and b = shuffle_node st b in
    if flip then And (b, a) else And (a, b)
  | Or (a, b) ->
    let a = shuffle_node st a and b = shuffle_node st b in
    if flip then Or (b, a) else Or (a, b)
  | Exists p -> Exists (shuffle_path st p)
  | Cmp (p, op, q) ->
    let p = shuffle_path st p and q = shuffle_path st q in
    if flip then Cmp (q, op, p) else Cmp (p, op, q)

and shuffle_path st p =
  let flip = Random.State.bool st in
  match p with
  | Axis _ -> p
  | Seq (a, b) -> Seq (shuffle_path st a, shuffle_path st b)
  | Union (a, b) ->
    let a = shuffle_path st a and b = shuffle_path st b in
    if flip then Union (b, a) else Union (a, b)
  | Filter (a, phi) -> Filter (shuffle_path st a, shuffle_node st phi)
  | Guard (phi, a) -> Guard (shuffle_node st phi, shuffle_path st a)
  | Star a -> Star (shuffle_path st a)

let prop_canonical_preserves_semantics =
  Gen_helpers.qtest ~count:300 "canonical preserves [[.]]"
    (QCheck.pair Gen_helpers.arb_node (Gen_helpers.arb_tree ()))
    (fun (phi, t) ->
      Semantics.check_somewhere t phi
      = Semantics.check_somewhere t (Rewrite.canonical phi))

let prop_commuted_same_key =
  Gen_helpers.qtest ~count:300 "commuted operands share a cache key"
    Gen_helpers.arb_node (fun phi ->
      let st = Random.State.make [| Hashtbl.hash phi |] in
      let phi' = shuffle_node st phi in
      let _, k = Cache_key.make ~config_fingerprint:"t" phi in
      let _, k' = Cache_key.make ~config_fingerprint:"t" phi' in
      k = k')

(* Normalization-equal formulas always produce the same verdict — and
   the second solve is a cache hit returning the physically identical
   report. Uses small data-free-ish formulas to keep solving cheap. *)
let prop_key_equal_same_verdict =
  Gen_helpers.qtest ~count:40 "key-equal formulas: same verdict via cache"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg) (fun phi ->
      let svc = Service.create Service.Config.default in
      let st = Random.State.make [| Hashtbl.hash phi; 17 |] in
      let phi' = shuffle_node st phi in
      let r1 =
        Corpus.solve svc
          { Request.id = "1"; timeout_ms = None; body = Sat phi }
      in
      let r2 =
        Corpus.solve svc
          { Request.id = "2"; timeout_ms = None; body = Sat phi' }
      in
      if not r2.Service.cached then
        QCheck.Test.fail_reportf "no cache hit for commuted formula";
      if not (r1.Service.report == r2.Service.report) then
        QCheck.Test.fail_reportf "cache hit is not the identical report";
      Service.verdict_name r1.Service.report.Sat.verdict
      = Service.verdict_name r2.Service.report.Sat.verdict)

(* --- batch: agrees with one-at-a-time solves --- *)

(* A mixed bag of the bench families, each with the answer it has by
   construction ([`Any] where the default budget runs out first). *)
let family_cases () =
  List.concat
    [ List.init 4 (fun i -> (Families.child_chain ~sat:true (i + 1), `Sat));
      List.init 2 (fun i -> (Families.child_chain ~sat:false (i + 1), `Unsat));
      List.init 2 (fun i -> (Families.data_chain ~sat:true (i + 2), `Sat));
      [ (Families.data_chain ~sat:true 4, `Any);
        (Families.data_chain ~sat:false 2, `Unsat);
        (Families.desc_data ~sat:true 1, `Sat);
        (Families.desc_data ~sat:true 2, `Sat);
        (Families.desc_data ~sat:false 1, `Any);
        (Families.root_data 2, `Sat);
        (Families.reg_alternation ~sat:true (), `Sat);
        (Families.mixed_axes ~sat:true 2, `Sat);
        (Families.mixed_axes ~sat:false 2, `Unsat)
      ];
      (* duplicates exercise the result cache *)
      [ (Families.child_chain ~sat:true 2, `Sat);
        (Families.data_chain ~sat:true 3, `Sat)
      ]
    ]

let family_formulas () = List.map fst (family_cases ())

let requests_of formulas =
  List.mapi
    (fun i phi ->
      { Request.id = string_of_int i; timeout_ms = None; body = Sat phi })
    formulas

(* A request list solved in order on one service answers what each
   request answers on a service of its own. *)
let test_batch_agrees_with_solve () =
  let cases = family_cases () in
  let requests = requests_of (List.map fst cases) in
  let batch =
    List.map (Corpus.solve (Service.create Service.Config.default)) requests
  in
  let one =
    List.map
      (fun r -> Corpus.solve (Service.create Service.Config.default) r)
      requests
  in
  List.iter2
    (fun (s : Service.response) (b : Service.response) ->
      Alcotest.(check string) ("id " ^ s.Service.id) s.Service.id
        b.Service.id;
      Alcotest.(check string)
        ("verdict for " ^ s.Service.id)
        (Service.verdict_name s.Service.report.Sat.verdict)
        (Service.verdict_name b.Service.report.Sat.verdict))
    one batch;
  List.iter2
    (fun (_, expect) (b : Service.response) ->
      let v = Service.verdict_name b.Service.report.Sat.verdict in
      Alcotest.(check bool)
        (Printf.sprintf "verdict by construction for %s: %s" b.Service.id v)
        true
        (match (expect, v) with
        | `Sat, "sat" | `Unsat, ("unsat" | "unsat_bounded") | `Any, _ -> true
        | _ -> false))
    cases batch;
  (* The duplicated formulas must be served as cache hits. *)
  let hits =
    List.length (List.filter (fun r -> r.Service.cached) batch)
  in
  Alcotest.(check bool) "some dedup hits" true (hits >= 2)

let test_metrics_accounting () =
  let svc = Service.create Service.Config.default in
  let formulas = family_formulas () in
  let solve_all () =
    List.iter (fun r -> ignore (Corpus.solve svc r)) (requests_of formulas)
  in
  let metric path = Corpus.metric (Service.metrics svc) path in
  solve_all ();
  let n = float_of_int (List.length formulas) in
  Alcotest.(check (float 0.)) "requests" n (metric [ "requests" ]);
  Alcotest.(check (float 0.)) "hits+misses" n
    (metric [ "cache_hits" ] +. metric [ "cache_misses" ]);
  Alcotest.(check bool) "some misses" true (metric [ "cache_misses" ] > 0.);
  (* Solve the same list again: every request is now a cache hit. *)
  let hits = metric [ "cache_hits" ] in
  solve_all ();
  Alcotest.(check (float 0.)) "all hits on re-run" n
    (metric [ "cache_hits" ] -. hits)

(* The metrics JSON, byte for byte, after fixed calls to every
   recorder: every [ms] is fixed, so a renamed key, a moved field, a
   changed rounding or a miscounted derived value (means, p95, min,
   the memory tier) fails here. *)
let test_metrics_json_pin () =
  let module Metrics = Xpds_service.Metrics in
  let module Trace = Xpds_service.Trace in
  let m = Metrics.create () in
  let stats n =
    { Emptiness.n_states = n; n_transitions = 2 * n; n_mergings = 3 * n;
      max_height_reached = 0; n_replayed = 0; n_fresh_keys = 0;
      n_applied = 0 }
  in
  let record ?kind verdict ~cached ms =
    Metrics.record ?kind m ~verdict ~cached ~ms ~stats:(stats 5)
  in
  let leaf = Xpds_datatree.(Data_tree.leaf (Label.of_string "a") 0) in
  record (Sat.Sat leaf) ~cached:false 1.5;
  record Sat.Unsat ~cached:true 0.25;
  record ~kind:`Contains (Sat.Unsat_bounded "bounds") ~cached:false 4.;
  record ~kind:`Contains (Sat.Unknown Emptiness.deadline_exceeded)
    ~cached:false 10.125;
  record ~kind:`Doctype (Sat.Unknown "transition budget") ~cached:true 0.75;
  (* twelve latencies in all, so p95 (rank 10 of 0..11) is not the max *)
  List.iter (fun ms -> record Sat.Unsat ~cached:true ms) [ 0.5; 3.; 6. ];
  Metrics.record_eval m ~outcome:`Ok ~cached:false ~ms:2. ~node_evals:40;
  Metrics.record_eval m ~outcome:`Ok ~cached:true ~ms:0.125 ~node_evals:0;
  Metrics.record_eval m ~outcome:`Error ~cached:false ~ms:0.5 ~node_evals:0;
  Metrics.record_eval m ~outcome:`Deadline ~cached:false ~ms:7. ~node_evals:12;
  Metrics.record_disk_hit m ~verify_ms:0.5;
  Metrics.record_store_self_eviction m ~verify_ms:2.;
  Metrics.record_store_append m;
  Metrics.record_single_flight m;
  Metrics.record_crash m;
  Metrics.record_equiv m;
  Metrics.record_doc_built m;
  Metrics.record_cert m ~ok:true ~ms:3.;
  Metrics.record_cert m ~ok:false ~ms:1.5;
  let trace = Trace.create () in
  Trace.add_ms trace "parse" 0.0125;
  Trace.add_ms trace "fixpoint" 2.5;
  Trace.add_ms trace "parse" 0.1;
  Metrics.record_trace m trace;
  Alcotest.(check string) "metrics JSON"
    (String.concat ""
       [ {|{"requests":12,"cache_hits":6,"cache_misses":6,|};
         {|"verdicts":{"sat":1,"unsat":4,"unsat_bounded":1,"unknown":2},"deadline_timeouts":1,|};
         {|"requests_by_kind":{"sat":5,"eval":4,"contains":2,"equiv":1,"sat_under_doctype":1},|};
         {|"eval":{"requests":4,"cache_hits":1,"errors":1,"deadline_timeouts":1,"node_evals":52,"docs_built":1},|};
         {|"single_flight":1,"crashes":1,|};
         {|"tiers":{"memory":5,"disk":1,"solve":6},|};
         {|"store":{"disk_hits":1,"self_evictions":1,"appends":1,"verify_ms":{"n":2,"mean":1.25,"max":2}},|};
         {|"phase_totals_ms":{"fixpoint":2.5,"parse":0.113},|};
         {|"latency_ms":{"min":0.125,"mean":2.97917,"p95":7,"max":10.125},|};
         {|"fixpoint":{"states":15,"transitions":30,"mergings":45},|};
         {|"certificates":{"certified":1,"check_failures":1,"latency_ms":{"n":2,"mean":2.25,"max":3}}}|} ])
    (Json.to_string (Metrics.to_json m))

(* --- deadlines --- *)

(* A formula whose saturation blows past any small deadline once the
   resource budgets are lifted. Its data-free relaxation [⟨↓¹⁰⟩] is sat,
   and no assignment within the witness lift's cap gives its 11-node
   chain the data it needs, so the general engine runs; a formula that
   the relaxation or the lift decides would answer at once. *)
let hard_formula () = Families.data_chain ~sat:true 10

let test_deadline () =
  let svc =
    Service.create
      Service.Config.(
        default
        |> with_max_states 100_000_000
        |> with_max_transitions 100_000_000)
  in
  let start = Unix.gettimeofday () in
  let r =
    Corpus.solve svc
      { Request.id = "hard";
        timeout_ms = Some 150.;
        body = Sat (hard_formula ())
      }
  in
  let elapsed_ms = (Unix.gettimeofday () -. start) *. 1000. in
  (match r.Service.report.Sat.verdict with
  | Sat.Unknown why ->
    Alcotest.(check string) "deadline reason" Emptiness.deadline_exceeded
      why
  | v ->
    Alcotest.failf "expected Unknown, got %s"
      (Service.verdict_name v));
  (* Tolerance: the deadline is polled inside the fixpoint, so overshoot
     is bounded by one transition's work, not by the full search. *)
  Alcotest.(check bool)
    (Printf.sprintf "returned within tolerance (%.0f ms)" elapsed_ms)
    true (elapsed_ms < 5_000.);
  (* Deadline verdicts must not poison the cache. *)
  Alcotest.(check int) "not cached" 0 (Service.cache_length svc);
  Alcotest.(check (float 0.)) "deadline counted" 1.
    (Corpus.metric (Service.metrics svc) [ "deadline_timeouts" ])

(* The data-free union closure polls the deadline on every transition
   and every 256 extensions, so a deadline bounds its wall time. Two
   formulas that outlast any of these deadlines: the bare chain
   [⟨↓[⟨↓[ … a … ]⟩]⟩] (20 diamonds, a pool of 2²⁰ reach sets) and
   sixteen [⟨↓[aᵢ]⟩] conjuncts beside [¬⟨↓[a1 ∧ a2]⟩] (2¹⁶ observables,
   none accepting). *)
let test_data_free_deadline_bound () =
  let bare_chain =
    let rec go n = if n = 0 then "a" else "<down[" ^ go (n - 1) ^ "]>" in
    go 20
  in
  let conjuncts =
    String.concat " & "
      (List.init 16 (fun i -> Printf.sprintf "<down[a%d]>" (i + 1)))
    ^ " & ~<down[a1 & a2]>"
  in
  let svc =
    Service.create
      Service.Config.(
        default
        |> with_max_states 100_000_000
        |> with_max_transitions 100_000_000)
  in
  List.iter
    (fun (name, phi) ->
      List.iter
        (fun deadline ->
          let start = Unix.gettimeofday () in
          let r =
            Corpus.solve svc
              { Request.id = name;
                timeout_ms = Some deadline;
                body = Sat (Xpds_xpath.Parser.node_of_string_exn phi)
              }
          in
          let elapsed_ms = (Unix.gettimeofday () -. start) *. 1000. in
          let label = Printf.sprintf "%s at %.0f ms" name deadline in
          (match r.Service.report.Sat.verdict with
          | Sat.Unknown why ->
            Alcotest.(check string) (label ^ ": reason")
              Emptiness.deadline_exceeded why
          | v ->
            Alcotest.failf "%s: expected Unknown, got %s" label
              (Service.verdict_name v));
          Alcotest.(check bool)
            (Printf.sprintf "%s: answered in %.1f ms" label elapsed_ms)
            true
            (elapsed_ms <= deadline +. Float.max 20. (deadline /. 10.)))
        [ 10.; 100.; 1_000. ])
    [ ("bare chain 20", bare_chain); ("16 conjuncts", conjuncts) ]

(* A 0 ms budget is already exhausted at admission: the response must be
   a deterministic [Unknown "deadline exceeded"] — no fixpoint work, no
   cache pollution, every time. *)
let test_zero_timeout () =
  let svc = Service.create Service.Config.default in
  for i = 1 to 3 do
    let r =
      Corpus.solve svc
        { Request.id = "z" ^ string_of_int i;
          timeout_ms = Some 0.;
          body = Sat (B.lab "a")
        }
    in
    (match r.Service.report.Sat.verdict with
    | Sat.Unknown why ->
      Alcotest.(check string) "deadline reason"
        Emptiness.deadline_exceeded why
    | v ->
      Alcotest.failf "expected Unknown, got %s" (Service.verdict_name v));
    Alcotest.(check bool) "not served from cache" false r.Service.cached
  done;
  Alcotest.(check int) "never cached" 0 (Service.cache_length svc);
  (* The same formula with budget solves fine: the deadline verdict did
     not poison anything. *)
  let r =
    Corpus.solve svc
      { Request.id = "ok"; timeout_ms = None; body = Sat (B.lab "a") }
  in
  Alcotest.(check string) "solves after 0ms probes" "sat"
    (Service.verdict_name r.Service.report.Sat.verdict)

(* --- single-flight --- *)

(* Four domains race the same formula. The chaos hook parks the leader
   until the other three are observably waiting on its flight, so
   exactly one fixpoint runs — pinned by the metrics: 1 miss, 3
   single-flight joins. *)
let test_single_flight () =
  let svc = Service.create Service.Config.default in
  let release = Atomic.make false in
  Service.Chaos.set svc
    (Some
       (fun _ ->
         while not (Atomic.get release) do
           Domain.cpu_relax ()
         done));
  let phi = family_formulas () |> List.hd in
  let racer i =
    Domain.spawn (fun () ->
        Corpus.solve svc
          { Request.id = string_of_int i; timeout_ms = None; body = Sat phi })
  in
  let domains = List.init 4 racer in
  (* Wait (bounded) for the three followers to block on the flight, then
     release the leader. Releasing on timeout keeps a regression from
     hanging the suite — the waiter assertion below then fails. *)
  let give_up = Xpds_service.Trace.now_ms () +. 10_000. in
  while
    Service.inflight_waiters svc < 3
    && Xpds_service.Trace.now_ms () < give_up
  do
    Domain.cpu_relax ()
  done;
  let waiters = Service.inflight_waiters svc in
  Atomic.set release true;
  let resps = List.map Domain.join domains in
  Service.Chaos.set svc None;
  Alcotest.(check int) "three followers waited" 3 waiters;
  let verdicts =
    List.map
      (fun (r : Service.response) ->
        Service.verdict_name r.Service.report.Sat.verdict)
      resps
  in
  List.iter
    (fun v -> Alcotest.(check string) "all agree" (List.hd verdicts) v)
    verdicts;
  Alcotest.(check int) "three shared responses" 3
    (List.length (List.filter (fun r -> r.Service.cached) resps));
  let m = Service.metrics svc in
  Alcotest.(check (float 0.)) "requests" 4. (Corpus.metric m [ "requests" ]);
  Alcotest.(check (float 0.)) "exactly one fixpoint ran" 1.
    (Corpus.metric m [ "cache_misses" ]);
  Alcotest.(check (float 0.)) "single-flight joins" 3.
    (Corpus.metric m [ "single_flight" ])

(* --- crash isolation --- *)

let test_batch_crash_isolation () =
  let svc = Service.create Service.Config.default in
  Service.Chaos.set svc
    (Some (fun id -> if id = "poison" then failwith "injected"));
  let reqs =
    [ { Request.id = "ok1"; timeout_ms = None; body = Sat (B.lab "a") };
      { Request.id = "poison";
        timeout_ms = None;
        body = Sat (B.exists (B.filter B.down (B.lab "b")))
      };
      { Request.id = "ok2";
        timeout_ms = None;
        body = Sat (And (B.lab "c", B.not_ (B.lab "c")))
      }
    ]
  in
  let resps = List.map (Corpus.solve svc) reqs in
  Service.Chaos.set svc None;
  Alcotest.(check int) "every item answered" 3 (List.length resps);
  List.iter2
    (fun (r : Request.t) (resp : Service.response) ->
      Alcotest.(check string) "request order" r.Request.id
        resp.Service.id)
    reqs resps;
  (match resps with
  | [ a; b; c ] ->
    Alcotest.(check string) "ok1 unaffected" "sat"
      (Service.verdict_name a.Service.report.Sat.verdict);
    (match b.Service.report.Sat.verdict with
    | Sat.Unknown why ->
      Alcotest.(check bool) "crash-tagged reason" true
        (String.length why >= 7 && String.sub why 0 7 = "crash: ")
    | v ->
      Alcotest.failf "poisoned item: expected Unknown, got %s"
        (Service.verdict_name v));
    Alcotest.(check bool) "ok2 unaffected" true
      (match Service.verdict_name c.Service.report.Sat.verdict with
      | "unsat" | "unsat_bounded" -> true
      | _ -> false)
  | _ -> Alcotest.fail "arity");
  let m = Service.metrics svc in
  Alcotest.(check (float 0.)) "crash counted" 1. (Corpus.metric m [ "crashes" ]);
  (* The crash report is never cached; the healthy verdicts are. *)
  Alcotest.(check int) "only healthy verdicts cached" 2
    (Service.cache_length svc);
  (* With the hook disarmed the same request heals. *)
  let healed =
    Corpus.solve svc
      { Request.id = "poison";
        timeout_ms = None;
        body = Sat (B.exists (B.filter B.down (B.lab "b")))
      }
  in
  Alcotest.(check string) "poisoned key heals" "sat"
    (Service.verdict_name healed.Service.report.Sat.verdict)

(* --- serve loop robustness --- *)

let test_handle_line_garbage () =
  let svc = Service.create Service.Config.default in
  let garbage =
    [ "";
      "this is not json";
      "{\"id\":\"g\"}";
      "{\"formula\": \"<down[\"}";
      "{\"formula\": [1,2]}";
      "{\"formula\": 42}";
      "[\"not\",\"an\",\"object\"]";
      "{\"formula\": \"<down[a]>\""
    ]
  in
  List.iter
    (fun line ->
      let reply = Service.handle_line svc line in
      match Json.parse reply with
      | Error e -> Alcotest.failf "reply not JSON for %S: %s" line e
      | Ok v ->
        Alcotest.(check bool)
          (Printf.sprintf "structured error for %S" line)
          true
          (Json.member "error" v <> None))
    garbage;
  (* A non-numeric timeout is ignored, not an error. *)
  (match
     Json.parse
       (Service.handle_line svc
          {|{"formula": "<down[a]>", "timeout_ms": "soon"}|})
   with
  | Ok v ->
    Alcotest.(check bool) "non-numeric timeout still solves" true
      (Json.member "error" v = None)
  | Error e -> Alcotest.failf "reply not JSON: %s" e);
  (* The service survived the abuse: a well-formed line still solves. *)
  let reply =
    Service.handle_line ~trace:true svc
      {|{"id":"good","formula":"<down[a]>"}|}
  in
  match Json.parse reply with
  | Error e -> Alcotest.failf "good reply not JSON: %s" e
  | Ok v ->
    (match Json.member "verdict" v with
    | Some (Json.Str s) -> Alcotest.(check string) "solves" "sat" s
    | _ -> Alcotest.fail "no verdict on good line");
    Alcotest.(check bool) "trace attached" true
      (Json.member "trace" v <> None)

(* --- per-request tracing --- *)

let test_trace_phases () =
  let svc = Service.create Service.Config.default in
  let req =
    { Request.id = "t";
      timeout_ms = None;
      body = Sat (B.exists (B.filter B.down (B.lab "a")))
    }
  in
  let phases r =
    List.map fst (Xpds_service.Trace.spans r.Service.trace)
  in
  let cold = Corpus.solve svc req in
  let cold_phases = phases cold in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("cold trace has " ^ p) true
        (List.mem p cold_phases))
    [ "canonicalize"; "cache_probe"; "solve"; "translate"; "fixpoint" ];
  let warm = Corpus.solve svc req in
  Alcotest.(check bool) "warm solve is a hit" true warm.Service.cached;
  Alcotest.(check bool) "warm trace has no fixpoint" false
    (List.mem "fixpoint" (phases warm));
  (* The phase totals fed the metrics aggregate. *)
  Alcotest.(check bool) "fixpoint aggregated in metrics" true
    (Corpus.metric (Service.metrics svc) [ "phase_totals_ms"; "fixpoint" ] >= 0.)

(* --- the eval verb on the wire (docs/protocol.md, kind "eval") --- *)

let parse_reply line =
  match Json.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "reply not JSON: %s" e

let reply_error line =
  match Json.member "error" (parse_reply line) with
  | Some (Json.Str e) -> e
  | _ -> Alcotest.failf "expected an error reply, got: %s" line

let test_eval_wire () =
  let svc = Service.create Service.Config.default in
  let line =
    {|{"kind":"eval","id":"q1","formula":"<down[a]>","tree":"r:0(a:1,b:2(a:3))"}|}
  in
  let v = parse_reply (Service.handle_line svc line) in
  let mem k = Json.member k v in
  Alcotest.(check bool) "kind eval" true (mem "kind" = Some (Json.Str "eval"));
  Alcotest.(check bool) "carries v:1" true (mem "v" = Some (Json.Num 1.));
  (* ⟨↓[a]⟩ holds where a child is labelled a: at ε (child a:1) and at
     position 1 (the b node, child a:3). *)
  Alcotest.(check bool) "root" true (mem "root" = Some (Json.Bool true));
  Alcotest.(check bool) "count" true (mem "count" = Some (Json.Num 2.));
  (match mem "nodes" with
  | Some (Json.Arr [ Json.Str _; Json.Str p1 ]) ->
    Alcotest.(check string) "second position" "1" p1
  | _ -> Alcotest.fail "expected two positions");
  Alcotest.(check bool) "fresh" true (mem "cached" = Some (Json.Bool false));
  (* The identical line replays from the eval result cache. *)
  let v2 = parse_reply (Service.handle_line svc line) in
  Alcotest.(check bool) "replayed" true
    (Json.member "cached" v2 = Some (Json.Bool true));
  let m = Service.metrics svc in
  Alcotest.(check (float 0.)) "eval requests" 2.
    (Corpus.metric m [ "eval"; "requests" ]);
  Alcotest.(check (float 0.)) "no sat requests" 0.
    (Corpus.metric m [ "requests_by_kind"; "sat" ]);
  Alcotest.(check (float 0.)) "eval cache hit" 1.
    (Corpus.metric m [ "eval"; "cache_hits" ]);
  Alcotest.(check (float 0.)) "one doc built" 1.
    (Corpus.metric m [ "eval"; "docs_built" ]);
  Alcotest.(check bool) "node evals counted" true
    (Corpus.metric m [ "eval"; "node_evals" ] > 0.)

let test_eval_schema_closed () =
  let fails ~naming line =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names %S" naming)
        true (contains e naming)
  in
  (* Unknown fields are rejected per kind... *)
  fails ~naming:"bogus"
    {|{"kind":"eval","formula":"a","tree":"r:0","bogus":1}|};
  (* ...the sat schema does not grow the eval-only fields... *)
  fails ~naming:"tree" {|{"formula":"a","tree":"r:0"}|};
  fails ~naming:"limit" {|{"kind":"sat","formula":"a","limit":3}|};
  (* ...an unknown kind is a structured error naming it... *)
  fails ~naming:"frob" {|{"kind":"frob","formula":"a"}|};
  (* ...eval carries exactly one document source... *)
  fails ~naming:"missing document" {|{"kind":"eval","formula":"a"}|};
  fails ~naming:"ambiguous"
    {|{"kind":"eval","formula":"a","tree":"r:0","xml":"<r/>"}|};
  (* ...the version gate applies to eval too... *)
  fails ~naming:"unsupported protocol version"
    {|{"v":2,"kind":"eval","formula":"a","tree":"r:0"}|};
  (* ...and an eval line is not a sat request. *)
  (match Request.of_line {|{"kind":"eval","formula":"a","tree":"r:0"}|} with
  | Ok { body = Request.Sat _; _ } -> Alcotest.fail "eval decoded as a sat request"
  | Ok _ | Error _ -> ());
  (* "kind":"sat" is accepted and equivalent to an absent kind. *)
  match Request.of_line {|{"kind":"sat","id":"s","formula":"<down[a]>"}|} with
  | Ok { id; body = Request.Sat _; _ } -> Alcotest.(check string) "id" "s" id
  | Ok _ -> Alcotest.fail "kind sat decoded as another kind"
  | Error e -> Alcotest.failf "kind sat rejected: %s" e

let test_eval_errors_structured () =
  let svc =
    Service.create Service.Config.(default |> with_max_doc_nodes 2)
  in
  (* Unknown named document. *)
  let e =
    reply_error
      (Service.handle_line svc
         {|{"kind":"eval","id":"q","formula":"a","doc":"nope"}|})
  in
  Alcotest.(check bool) "names the document" true (contains e "nope");
  (* Unparsable inline source. *)
  let e =
    reply_error
      (Service.handle_line svc
         {|{"kind":"eval","formula":"a","tree":"(("}|})
  in
  Alcotest.(check bool) "bad tree reported" true (contains e "bad tree");
  (* Oversized document: a structured error, not an attempt. *)
  let e =
    reply_error
      (Service.handle_line svc
         {|{"kind":"eval","formula":"a","tree":"r:0(a:1,b:2)"}|})
  in
  Alcotest.(check bool) "oversize names the bound" true
    (contains e "max_doc_nodes");
  (* register_doc enforces the same bound. *)
  (match
     Service.register_doc svc ~name:"big"
       (Xpds_eval.Doc.of_tree
          (Xpds_datatree.Data_tree.of_string_exn "r:0(a:1,b:2)"))
   with
  | Ok () -> Alcotest.fail "oversized registration accepted"
  | Error e ->
    Alcotest.(check bool) "registration names the bound" true
      (contains e "max_doc_nodes"));
  let m = Service.metrics svc in
  Alcotest.(check (float 0.)) "errors counted" 3.
    (Corpus.metric m [ "eval"; "errors" ]);
  Alcotest.(check (float 0.)) "errors are not cache entries" 0.
    (Corpus.metric m [ "eval"; "cache_hits" ])

let test_eval_registry () =
  let svc = Service.create Service.Config.default in
  let tree = Xpds_datatree.Data_tree.of_string_exn "r:0(a:1,b:2(a:3))" in
  (match Service.register_doc svc ~name:"lib" (Xpds_eval.Doc.of_tree tree)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register_doc: %s" e);
  Alcotest.(check (list (pair string int)))
    "registry" [ ("lib", 4) ]
    (Service.registered_docs svc);
  let v =
    parse_reply
      (Service.handle_line svc
         {|{"kind":"eval","id":"q","formula":"<down[a]>","doc":"lib"}|})
  in
  Alcotest.(check bool) "named doc answers" true
    (Json.member "count" v = Some (Json.Num 2.));
  (* Result keys are content digests: the same document sent inline
     replays the named document's cache entry. *)
  let v2 =
    parse_reply
      (Service.handle_line svc
         {|{"kind":"eval","formula":"<down[a]>","tree":"r:0(a:1,b:2(a:3))"}|})
  in
  Alcotest.(check bool) "inline twin is a cache hit" true
    (Json.member "cached" v2 = Some (Json.Bool true))

let test_eval_limit_and_deadline () =
  let svc = Service.create Service.Config.default in
  (* Three nodes satisfy the label test; limit 2 truncates the wire
     rendering but not the count. *)
  let v =
    parse_reply
      (Service.handle_line svc
         {|{"kind":"eval","formula":"a","tree":"r:0(a:1,a:2,a:3)","limit":2}|})
  in
  Alcotest.(check bool) "count is total" true
    (Json.member "count" v = Some (Json.Num 3.));
  (match Json.member "nodes" v with
  | Some (Json.Arr l) -> Alcotest.(check int) "limited" 2 (List.length l)
  | _ -> Alcotest.fail "expected a nodes array");
  Alcotest.(check bool) "truncation flagged" true
    (Json.member "nodes_truncated" v = Some (Json.Bool true));
  (* A zero budget dies at admission, deterministically. *)
  let e =
    reply_error
      (Service.handle_line svc
         {|{"kind":"eval","formula":"b","tree":"r:0(a:1)","timeout_ms":0}|})
  in
  Alcotest.(check string) "deadline reason" Emptiness.deadline_exceeded e;
  Alcotest.(check (float 0.)) "deadline counted" 1.
    (Corpus.metric (Service.metrics svc) [ "eval"; "deadline_timeouts" ])

let suite =
  ( "service",
    [ Alcotest.test_case "lru basics" `Quick test_lru_basics;
      Alcotest.test_case "lru promotion" `Quick test_lru_promotion;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "request parsing" `Quick test_request_parsing;
      Alcotest.test_case "protocol versioning" `Quick
        test_protocol_versioning;
      Alcotest.test_case "protocol version on responses" `Quick
        test_protocol_version_on_responses;
      prop_canonical_preserves_semantics;
      prop_commuted_same_key;
      prop_key_equal_same_verdict;
      Alcotest.test_case "batch agrees with one-at-a-time solve" `Quick
        test_batch_agrees_with_solve;
      Alcotest.test_case "metrics accounting" `Quick
        test_metrics_accounting;
      Alcotest.test_case "metrics JSON pin" `Quick test_metrics_json_pin;
      Alcotest.test_case "deadline honoured" `Quick test_deadline;
      Alcotest.test_case "data-free deadline is a bound" `Slow
        test_data_free_deadline_bound;
      Alcotest.test_case "zero timeout deterministic" `Quick
        test_zero_timeout;
      Alcotest.test_case "single-flight dedup" `Quick test_single_flight;
      Alcotest.test_case "batch crash isolation" `Quick
        test_batch_crash_isolation;
      Alcotest.test_case "serve loop survives garbage" `Quick
        test_handle_line_garbage;
      Alcotest.test_case "trace phases" `Quick test_trace_phases;
      Alcotest.test_case "eval wire" `Quick test_eval_wire;
      Alcotest.test_case "eval schema closed" `Quick
        test_eval_schema_closed;
      Alcotest.test_case "eval errors structured" `Quick
        test_eval_errors_structured;
      Alcotest.test_case "eval registry" `Quick test_eval_registry;
      Alcotest.test_case "eval limit and deadline" `Quick
        test_eval_limit_and_deadline
    ] )
