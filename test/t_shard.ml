(* Tests for the multi-process shard router: routing determinism (the
   qcheck pin that a request's home shard is a pure function of its
   canonical cache key, and the key the in-process service caches the
   same request under), equiv routing and end-to-end answers and
   metrics, admission bounds, cross-process kind
   separation (a contains verdict cached on a shard is never served for
   a sat request), single-shard agreement with the in-process path,
   worker-crash isolation + respawn via the chaos hook (abort lines
   keep numeric ids), and the metrics merge rules. *)

module Service = Xpds_service.Service
module Request = Xpds_service.Request
module Engine = Xpds_service.Engine
module Cache_key = Xpds_service.Cache_key
module Shard = Xpds_shard.Shard
module Parser = Xpds_xpath.Parser
module Pp = Xpds_xpath.Pp

let fp = "test-fingerprint"

let sat_line ?(id = "q") phi_str =
  Json.to_string
    (Json.Obj [ ("id", Json.Str id); ("formula", Json.Str phi_str) ])

let contains_line ?(id = "q") phi psi =
  Json.to_string
    (Json.Obj
       [ ("kind", Json.Str "contains");
         ("id", Json.Str id);
         ("phi", Json.Str phi);
         ("psi", Json.Str psi)
       ])

(* --- routing --- *)

(* A sat request's shard is exactly [shard_of_key] of its canonical
   cache key: deterministic, in range, and insensitive to how many
   times you ask. *)
let prop_routing_deterministic =
  Gen_helpers.qtest ~count:300 "sat route = shard of canonical key"
    Gen_helpers.arb_node (fun phi ->
      let printed = Pp.node_to_string phi in
      match Parser.formula_of_string printed with
      | Error _ -> QCheck.assume_fail ()
      | Ok f ->
        let ast = Xpds_xpath.Ast.as_node f in
        let shards = 1 + (Hashtbl.hash printed mod 7) in
        let line = sat_line printed in
        let r1 = Shard.route_line ~config_fingerprint:fp ~shards line in
        let r2 = Shard.route_line ~config_fingerprint:fp ~shards line in
        let _, key = Cache_key.make ~config_fingerprint:fp ast in
        let home = Shard.shard_of_key ~shards key in
        if r1 <> home then
          QCheck.Test.fail_reportf "routed to %d, key says %d" r1 home;
        if r1 < 0 || r1 >= shards then
          QCheck.Test.fail_reportf "shard %d out of range [0,%d)" r1 shards;
        r1 = r2)

let equiv_line ?(id = "e") phi psi =
  Json.to_string
    (Json.Obj
       [ ("kind", Json.Str "equiv");
         ("id", Json.Str id);
         ("phi", Json.Str phi);
         ("psi", Json.Str psi)
       ])

(* An equiv travels whole to the shard its forward direction would
   land on as a standalone contains request, whatever shard the
   backward direction's key points at. *)
let test_equiv_routes_forward () =
  let phi = "<down[a & b]>" and psi = "<down[a]>" in
  List.iter
    (fun shards ->
      let route = Shard.route_line ~config_fingerprint:fp ~shards in
      Alcotest.(check int)
        (Printf.sprintf "forward key's shard of %d" shards)
        (route (contains_line phi psi))
        (route (equiv_line phi psi)))
    [ 1; 2; 5; 7 ]

(* Every solver-backed kind routes by the key the worker's service
   actually caches under — the one [Request.key] — so a route can never
   drift from the service's kind tag or salt. A two-state budget keeps
   the in-process solves short; it changes the fingerprint on both
   sides alike. *)
let route_cfg = Service.Config.(default |> with_max_states 2)
let route_fp = Service.Config.fingerprint route_cfg.Service.Config.solver
let route_svc = Service.create route_cfg

let doctype_fixture =
  {|[{"parent":"a","at_least":[[1,"b"]],"forbidden":["c"]},{"parent":"b","forbidden":["a"]}]|}

let route_agrees_with_service ~shards line =
  let key =
    match Request.of_line line with
    | Error e -> QCheck.Test.fail_reportf "%s: %s" line e
    | Ok r -> (
      match Service.handle route_svc r with
      | Service.Sat_answer resp
      | Service.Contains_answer resp
      | Service.Doctype_answer resp
      | Service.Equiv_answer { forward = resp; _ } ->
        resp.Service.key
      | Service.Eval_answer _ ->
        QCheck.Test.fail_reportf "%s: not a verdict" line)
  in
  let s = Shard.route_line ~config_fingerprint:route_fp ~shards line in
  s = Shard.shard_of_key ~shards key
  || QCheck.Test.fail_reportf "%s: routed to %d, the service keyed shard %d"
       line s
       (Shard.shard_of_key ~shards key)

let prop_route_matches_service_key =
  Gen_helpers.qtest ~count:100 "sat/contains/doctype route = service key"
    (QCheck.pair Gen_helpers.arb_node Gen_helpers.arb_node) (fun (phi, psi) ->
      let phi = Pp.node_to_string phi and psi = Pp.node_to_string psi in
      if
        Result.is_error (Parser.formula_of_string phi)
        || Result.is_error (Parser.formula_of_string psi)
      then QCheck.assume_fail ();
      let shards = 1 + (Hashtbl.hash (phi, psi) mod 7) in
      let doctype_line =
        Printf.sprintf {|{"kind":"sat_under_doctype","id":"d","formula":%s,"doctype":%s}|}
          (Json.to_string (Json.Str phi)) doctype_fixture
      in
      List.for_all
        (route_agrees_with_service ~shards)
        [ sat_line phi; contains_line phi psi; equiv_line phi psi; doctype_line ])

(* --- engine helpers --- *)

let with_engine ?chaos_crash_id ~shards f =
  let buf = ref [] in
  let emit l = buf := l :: !buf in
  let eng =
    Shard.engine ?chaos_crash_id ~shards ~emit Service.Config.default
  in
  Fun.protect
    ~finally:(fun () -> Engine.close eng)
    (fun () -> f eng (fun () -> List.rev !buf))

let field name line =
  match Json.parse line with
  | Ok v -> Json.member name v
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

let str_field name line = Option.bind (field name line) Json.to_str

let find_id id lines =
  match
    List.find_opt (fun l -> str_field "id" l = Some id) lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no response for id %s" id

(* --- cross-process kind separation --- *)

(* A contains verdict cached on its shard must never be served for a
   sat request on the same formula: the kind tag is part of the key, so
   the sat solve is a genuine miss, and only its own repeat hits. *)
let test_kind_separation () =
  with_engine ~shards:2 (fun eng lines ->
      let phi = "<down[a]>" and psi = "<desc[a]>" in
      List.iter (Engine.submit eng)
        [ contains_line ~id:"c1" phi psi;
          sat_line ~id:"s1" phi;
          sat_line ~id:"s2" phi;
          contains_line ~id:"c2" phi psi
        ];
      Engine.drain eng;
      let lines = lines () in
      let c1 = find_id "c1" lines and c2 = find_id "c2" lines in
      let s1 = find_id "s1" lines and s2 = find_id "s2" lines in
      (match str_field "answer" c1 with
      | Some ("holds" | "holds_bounded") -> ()
      | a ->
        Alcotest.failf "contains answer %s"
          (Option.value a ~default:"<none>"));
      Alcotest.(check (option string))
        "sat verdict untainted" (Some "sat") (str_field "verdict" s1);
      Alcotest.(check (option bool))
        "first sat is a genuine miss" (Some false)
        (Option.bind (field "cached" s1) Json.to_bool);
      Alcotest.(check (option bool))
        "repeated sat hits its own entry" (Some true)
        (Option.bind (field "cached" s2) Json.to_bool);
      Alcotest.(check (option bool))
        "repeated contains hits its own entry" (Some true)
        (Option.bind (field "cached" c2) Json.to_bool))

(* --- single-shard agreement --- *)

(* ~shards:1 must answer exactly what the in-process handle_line
   answers, for every kind and for garbage, modulo solve-time fields. *)
let rec scrub = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = "ms" then None else Some (k, scrub v))
         kvs)
  | Json.Arr l -> Json.Arr (List.map scrub l)
  | v -> v

let norm l =
  match Json.parse l with Ok v -> Json.to_string (scrub v) | Error _ -> l

let test_single_shard_agreement () =
  let reqs =
    [ {|{"id":"a1","formula":"<down[a]>"}|};
      {|{"id":"a2","formula":"<down[a & b]>"}|};
      {|{"kind":"contains","id":"a3","phi":"<down[a & b]>","psi":"<down[a]>"}|};
      {|{"kind":"equiv","id":"a4","phi":"<down[a]>","psi":"<down[a]>"}|};
      {|{"kind":"eval","id":"a5","formula":"b","tree":"r:0(a:1,b:2)"}|};
      "this is not json"
    ]
  in
  let svc = Service.create Service.Config.default in
  let reference = List.map (Service.handle_line svc) reqs in
  with_engine ~shards:1 (fun eng lines ->
      List.iter (Engine.submit eng) reqs;
      Engine.drain eng;
      let got = lines () in
      Alcotest.(check int)
        "one answer per request" (List.length reqs) (List.length got);
      List.iter2
        (fun want have ->
          Alcotest.(check string) "line agrees" (norm want) (norm have))
        reference got)

let metric m path =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some m) path
  |> Fun.flip Option.bind Json.to_float

(* An equiv through two shards answers the in-process line, modulo
   solve times, and the merged metrics count it as an equiv — one
   worker served it whole. *)
let test_equiv_end_to_end () =
  let req = equiv_line ~id:"e2" "<down[a & b]>" "<down[b & a]>" in
  let want =
    Service.handle_line (Service.create Service.Config.default) req
  in
  with_engine ~shards:2 (fun eng lines ->
      Engine.submit eng req;
      Engine.drain eng;
      (match lines () with
      | [ have ] ->
        Alcotest.(check string) "line agrees" (norm want) (norm have)
      | got -> Alcotest.failf "%d replies to 1 line" (List.length got));
      match Engine.metrics_json eng with
      | None -> Alcotest.fail "no aggregated metrics"
      | Some m ->
        Alcotest.(check (option (float 0.)))
          "requests_by_kind.equiv" (Some 1.)
          (metric m [ "requests_by_kind"; "equiv" ]))

(* Both engines answer a blank line like any other unparsable line;
   only the serve loop skips blank input. A worker that swallowed it
   would leave the router waiting for a reply that never comes. *)
let test_blank_line_answered () =
  with_engine ~shards:1 (fun eng lines ->
      List.iter (Engine.submit eng) [ ""; sat_line ~id:"b1" "<down[a]>" ];
      Engine.drain eng;
      match lines () with
      | [ blank; b1 ] ->
        Alcotest.(check string) "blank line gets the in-process error"
          (Service.handle_line (Service.create Service.Config.default) "")
          blank;
        Alcotest.(check (option string)) "next reply in order" (Some "b1")
          (str_field "id" b1)
      | got -> Alcotest.failf "%d replies to 2 lines" (List.length got))

(* --- crash isolation and respawn --- *)

let test_crash_respawn () =
  with_engine ~shards:2 ~chaos_crash_id:"boom" (fun eng lines ->
      let phi = "<down[a & <down[b & <down[c]>]>]>" in
      Engine.submit eng (sat_line ~id:"boom" phi);
      Engine.drain eng;
      let boom = find_id "boom" (lines ()) in
      (match str_field "error" boom with
      | Some e ->
        Alcotest.(check bool)
          "structured dead-worker error" true
          (String.length e > 0)
      | None -> Alcotest.fail "crashed request answered no error");
      (* The respawned worker serves the same shard again. *)
      Engine.submit eng (sat_line ~id:"after" phi);
      Engine.drain eng;
      let after = find_id "after" (lines ()) in
      (match str_field "verdict" after with
      | Some "sat" -> ()
      | _ -> Alcotest.failf "respawned worker did not solve: %s" after);
      match Engine.metrics_json eng with
      | None -> Alcotest.fail "no aggregated metrics"
      | Some m -> (
        match Json.member "router" m with
        | Some r ->
          Alcotest.(check (option (float 0.)))
            "restart counted" (Some 1.)
            (Option.bind (Json.member "worker_restarts" r) Json.to_float)
        | None -> Alcotest.fail "no router section in metrics"))

(* The router's own error lines echo numeric ids the way the in-process
   path does: a worker death on {"id":7,...} answers "id":"7". *)
let test_abort_keeps_numeric_id () =
  with_engine ~shards:2 ~chaos_crash_id:"7" (fun eng lines ->
      Engine.submit eng {|{"id":7,"formula":"<down[a]>"}|};
      Engine.drain eng;
      let abort = find_id "7" (lines ()) in
      Alcotest.(check (option string))
        "abort line names the request"
        (Some "shard worker died; request aborted (worker respawned)")
        (str_field "error" abort))

(* --- metrics merge --- *)

let test_merge_metrics () =
  let a =
    Json.Obj
      [ ("requests", Json.Num 3.);
        ("engine", Json.Str "x");
        ( "lat",
          Json.Obj
            [ ("mean", Json.Num 10.);
              ("max_ms", Json.Num 5.);
              ("min_ms", Json.Num 2.)
            ] )
      ]
  in
  let b =
    Json.Obj
      [ ("requests", Json.Num 4.);
        ("extra", Json.Num 7.);
        ( "lat",
          Json.Obj
            [ ("mean", Json.Num 20.);
              ("max_ms", Json.Num 9.);
              ("min_ms", Json.Num 1.)
            ] )
      ]
  in
  let m = Shard.merge_metrics [ a; b ] in
  let num = metric m in
  Alcotest.(check (option (float 0.))) "counters sum" (Some 7.) (num [ "requests" ]);
  (* means are request-weighted: (3*10 + 4*20) / (3 + 4), not the
     unweighted 15 — a busy shard dominates an idle one *)
  Alcotest.(check (option (float 0.)))
    "means are request-weighted" (Some (110. /. 7.))
    (num [ "lat"; "mean" ]);
  Alcotest.(check (option (float 0.)))
    "max takes max" (Some 9.)
    (num [ "lat"; "max_ms" ]);
  Alcotest.(check (option (float 0.)))
    "min takes min" (Some 1.)
    (num [ "lat"; "min_ms" ]);
  Alcotest.(check (option string))
    "strings take first" (Some "x")
    (Option.bind (Json.member "engine" m) Json.to_str);
  Alcotest.(check (option (float 0.)))
    "missing keys union in" (Some 7.) (num [ "extra" ]);
  (* a shard that served nothing must not drag latency means down *)
  let idle =
    Json.Obj
      [ ("requests", Json.Num 0.);
        ("lat", Json.Obj [ ("mean", Json.Num 0.) ])
      ]
  in
  let num3 = metric (Shard.merge_metrics [ a; b; idle ]) in
  Alcotest.(check (option (float 0.)))
    "zero-request shard carries zero weight" (Some (110. /. 7.))
    (num3 [ "lat"; "mean" ]);
  (* A mean over a subset of the requests is weighted by its own sample
     count [n], not by the shard's requests: A serves 1000 requests and
     verifies 1 disk record in 10 ms, B serves 10 and verifies 10 in
     1 ms each, so the mean over the 11 verifies is 20/11 (weighting by
     requests gives 9.91). Certificate checks likewise. *)
  let module Metrics = Xpds_service.Metrics in
  let stats =
    { Xpds_decision.Emptiness.n_states = 0; n_transitions = 0; n_mergings = 0;
      max_height_reached = 0; n_replayed = 0; n_fresh_keys = 0;
      n_applied = 0 }
  in
  let shard ~requests ~probes ~ms =
    let m = Metrics.create () in
    for _ = 1 to requests do
      Metrics.record m ~verdict:Xpds_decision.Sat.Unsat ~cached:true ~ms:0.1 ~stats
    done;
    for _ = 1 to probes do
      Metrics.record_disk_hit m ~verify_ms:ms;
      Metrics.record_cert m ~ok:true ~ms
    done;
    Metrics.to_json m
  in
  let num4 =
    metric
      (Shard.merge_metrics
         [ shard ~requests:1000 ~probes:1 ~ms:10.;
           shard ~requests:10 ~probes:10 ~ms:1.
         ])
  in
  Alcotest.(check (option (float 1e-9)))
    "verify mean weighted by its n" (Some (20. /. 11.))
    (num4 [ "store"; "verify_ms"; "mean" ]);
  Alcotest.(check (option (float 1e-9)))
    "certificate mean weighted by its n" (Some (20. /. 11.))
    (num4 [ "certificates"; "latency_ms"; "mean" ]);
  Alcotest.(check (option (float 0.)))
    "n sums" (Some 11.) (num4 [ "store"; "verify_ms"; "n" ])

(* --- admission --- *)

(* A request is admitted while the queue has room and its deadline can
   be met behind the requests already queued, and shed otherwise. *)
let test_admission_bounds () =
  let module Admission = Xpds_service.Admission in
  let adm = Admission.create ~max_depth:2 () in
  Admission.enqueue adm;
  (match Admission.check adm ~now_ms:0. ~deadline_ms:None with
  | Admission.Admit -> ()
  | Admission.Shed _ -> Alcotest.fail "one slot fits at depth 1 of 2");
  Admission.enqueue adm;
  (match Admission.check adm ~now_ms:0. ~deadline_ms:None with
  | Admission.Shed _ -> ()
  | Admission.Admit -> Alcotest.fail "admitted past the depth bound");
  (* with a 10ms estimate and one request queued, completion lands
     around 20ms *)
  let adm2 = Admission.create ~max_depth:16 () in
  Admission.enqueue adm2;
  Admission.complete adm2 ~service_ms:10.;
  Admission.enqueue adm2;
  (match Admission.check adm2 ~now_ms:0. ~deadline_ms:(Some 15.) with
  | Admission.Shed _ -> ()
  | Admission.Admit -> Alcotest.fail "cannot meet a 15ms deadline");
  match Admission.check adm2 ~now_ms:0. ~deadline_ms:(Some 25.) with
  | Admission.Admit -> ()
  | Admission.Shed _ -> Alcotest.fail "fits a 25ms deadline"

(* --- wait: responses flow without further submissions --- *)

(* A synchronous client submits one line and reads the reply before
   sending anything else. [Engine.wait] must deliver that reply while
   the router is otherwise idle — pumping only at submit time deadlocks
   such a client (the serve-loop regression behind it is pinned here at
   the engine seam). *)
let test_wait_delivers_idle_responses () =
  with_engine ~shards:2 (fun eng lines ->
      Engine.submit eng (sat_line ~id:"w1" "<down[a]>");
      let deadline = Unix.gettimeofday () +. 30. in
      while lines () = [] && Unix.gettimeofday () < deadline do
        ignore (Engine.wait eng 0.25)
      done;
      let w1 = find_id "w1" (lines ()) in
      Alcotest.(check (option string))
        "reply arrived through wait alone" (Some "sat")
        (str_field "verdict" w1);
      (* wait also reports the caller's descriptors: a readable pipe
         comes back, stdin-style, alongside the worker pumping *)
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close r;
          Unix.close w)
        (fun () ->
          ignore (Unix.write_substring w "x" 0 1);
          let ready = Engine.wait eng ~read_fds:[ r ] 5. in
          Alcotest.(check bool)
            "readable extra fd reported" true
            (List.memq r ready)))

(* --- close with responses still in flight --- *)

(* [close] without a prior drain must not deadlock against a worker
   still producing output, and every submitted line still gets exactly
   one reply (a late response or a structured error), emitted while
   close drains the response pipes to EOF. *)
let test_close_undrained () =
  with_engine ~shards:2 (fun eng lines ->
      let n = 6 in
      for i = 1 to n do
        Engine.submit eng (sat_line ~id:(Printf.sprintf "u%d" i) "<down[a]>")
      done;
      Engine.close eng;
      Alcotest.(check int)
        "one reply per line despite undrained close" n
        (List.length (lines ())))

let suite =
  ( "shard",
    [ prop_routing_deterministic;
      prop_route_matches_service_key;
      Alcotest.test_case "equiv routes to its forward key's shard" `Quick
        test_equiv_routes_forward;
      Alcotest.test_case "equiv end to end through two shards" `Quick
        test_equiv_end_to_end;
      Alcotest.test_case "cross-process kind separation" `Quick
        test_kind_separation;
      Alcotest.test_case "single-shard agreement" `Quick
        test_single_shard_agreement;
      Alcotest.test_case "blank line answered" `Quick test_blank_line_answered;
      Alcotest.test_case "crash isolation and respawn" `Quick
        test_crash_respawn;
      Alcotest.test_case "abort line keeps a numeric id" `Quick
        test_abort_keeps_numeric_id;
      Alcotest.test_case "metrics merge rules" `Quick test_merge_metrics;
      Alcotest.test_case "admission depth and deadline bounds" `Quick
        test_admission_bounds;
      Alcotest.test_case "wait delivers idle responses" `Quick
        test_wait_delivers_idle_responses;
      Alcotest.test_case "close without drain" `Quick test_close_undrained
    ] )
