(* Tests for the containment / equivalence / doctype-satisfiability
   protocol verbs: differential checks of served answers against the
   library and the semantics, the counterexample codec round-trip, and
   the closed wire schemas of the three new kinds. *)

module Service = Xpds_service.Service
module Request = Xpds_service.Request
module Cache_key = Xpds_service.Cache_key
module Containment = Xpds_decision.Containment
module Sat = Xpds_decision.Sat
module Doctype = Xpds_automata.Doctype
module Semantics = Xpds_xpath.Semantics
module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label
module Parser = Xpds_xpath.Parser

open Xpds_xpath.Ast
module B = Xpds_xpath.Build

let f s = as_node (Parser.formula_of_string_exn s)

(* --- the counterexample codec (satellite: parseable wire trees) --- *)

(* The wire rendering of counterexamples and doctype witnesses must be
   the [label:datum(children)] syntax [Data_tree.of_string] parses —
   not the paper pp notation, which has no parser. This pin keeps the
   codec from regressing to [to_string]. *)
let test_codec_is_parseable_syntax () =
  let t =
    Data_tree.node "a" 1
      [ Data_tree.leaf (Label.of_string "b") 2;
        Data_tree.node "c" 0 [ Data_tree.leaf (Label.of_string "a") 1 ]
      ]
  in
  Alcotest.(check string)
    "compact syntax" "a:1(b:2,c:0(a:1))"
    (Data_tree.to_compact_string t);
  (* Labels outside the bare-identifier set are quoted and round-trip. *)
  let odd =
    Data_tree.node "with space" 3
      [ Data_tree.leaf (Label.of_string "x:y(z)") 0 ]
  in
  match Data_tree.of_string (Data_tree.to_compact_string odd) with
  | Ok odd' ->
    Alcotest.(check bool) "quoted labels round-trip" true
      (Data_tree.equal odd odd')
  | Error e -> Alcotest.failf "quoted label round-trip: %s" e

let test_codec_roundtrip_random =
  Gen_helpers.qtest ~count:200 "to_compact_string round-trips"
    (Gen_helpers.arb_tree ~labels:[ "a"; "b"; "long name"; "x:y" ] ())
    (fun t ->
      match Data_tree.of_string (Data_tree.to_compact_string t) with
      | Ok t' -> Data_tree.equal t t'
      | Error _ -> false)

(* --- served contains: every Fails carries a checked counterexample --- *)

(* One shared service: the differential property also exercises the
   kind-tagged cache across iterations. *)
let svc = Service.create Service.Config.default

let arb_pair =
  QCheck.pair
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)

let test_contains_fails_verified =
  Gen_helpers.qtest ~count:60 "served Fails counterexamples replay"
    arb_pair
    (fun (phi, psi) ->
      let resp =
        Corpus.solve svc
          { Request.id = "q"; timeout_ms = None; body = Contains { phi; psi } }
      in
      match Service.contains_answer resp with
      | Containment.Fails w ->
        (* the tree witnesses ϕ ∧ ¬ψ at some node... *)
        Semantics.check_somewhere w (And (phi, B.not_ psi))
        (* ...the solver replayed it before the service cached it... *)
        && resp.Service.report.Sat.witness_verified = Some true
        (* ...and its wire rendering parses back to the same tree. *)
        && (match
              Data_tree.of_string (Data_tree.to_compact_string w)
            with
           | Ok w' -> Data_tree.equal w w'
           | Error _ -> false)
      | Containment.Holds | Containment.Holds_bounded _
      | Containment.Unknown _ -> true)

(* Fixed pairs with their known answers: the served answer matches it
   and the direct library call, every [Fails] replays, and a second
   pass is served from the cache. *)
let contains_pairs =
  [ ("<down[a & b]>", "<down[a & b]>", "holds");
    ("<down[a & b]>", "<down[a]>", "holds");
    ("<down[a]>", "<down[a & b]>", "fails");
    ("<down[a]>", "<down[b]>", "fails");
    ("<down[a & <down[b & c]>]>", "<down[<down[b]>]>", "holds");
    ("<down[<down[b]>]>", "<down[a & <down[b]>]>", "fails");
    ("down[a] != down[a]", "down[a] != down[a]", "holds");
    ("down[a] != down[a]", "<down[a]>", "holds");
    ("<down[a]>", "down[a] != down[a]", "fails")
  ]

let answer_class = function
  | Containment.Holds | Containment.Holds_bounded _ -> "holds"
  | Containment.Fails _ -> "fails"
  | Containment.Unknown _ -> "unknown"

(* Equivalence is containment both ways, sharing the contains cache. *)
let test_equiv_directions_agree () =
  let fresh = Service.create Service.Config.default in
  let serve (phi, psi, _) =
    Corpus.solve fresh
      { Request.id = "p";
        timeout_ms = None;
        body = Contains { phi = f phi; psi = f psi }
      }
  in
  List.iter
    (fun ((phi, psi, expect) as pair) ->
      let name = phi ^ " in " ^ psi in
      let served = Service.contains_answer (serve pair) in
      Alcotest.(check string) (name ^ ": known answer") expect
        (answer_class served);
      Alcotest.(check string) (name ^ ": direct call agrees")
        (answer_class (Containment.contained (f phi) (f psi)))
        (answer_class served);
      match served with
      | Containment.Fails w ->
        Alcotest.(check bool) (name ^ ": counterexample replays") true
          (Semantics.check_somewhere w (And (f phi, B.not_ (f psi))))
      | _ -> ())
    contains_pairs;
  Alcotest.(check bool) "second pass all cached" true
    (List.for_all (fun pair -> (serve pair).Service.cached) contains_pairs);
  let phi = f "<down[a & b]>" and psi = f "<down[a]>" in
  let forward, backward =
    match
      Service.handle svc
        { Request.id = "e"; timeout_ms = None; body = Equiv { phi; psi } }
    with
    | Service.Equiv_answer { forward; backward; _ } -> (forward, backward)
    | _ -> Alcotest.fail "equiv answered another kind"
  in
  (* ϕ ⊑ ψ holds (possibly width-bounded); ψ ⊑ ϕ fails. *)
  (match Service.contains_answer forward with
  | Containment.Holds | Containment.Holds_bounded _ -> ()
  | a ->
    Alcotest.failf "forward: %s"
      (match a with
      | Containment.Fails _ -> "fails"
      | Containment.Unknown why -> "unknown: " ^ why
      | _ -> "?"));
  (match Service.contains_answer backward with
  | Containment.Fails w ->
    Alcotest.(check bool) "backward counterexample replays" true
      (Semantics.check_somewhere w (And (psi, B.not_ phi)))
  | _ -> Alcotest.fail "backward should fail");
  (* A direct contains of the backward direction is now a cache hit. *)
  let again =
    Corpus.solve svc
      { Request.id = "again";
        timeout_ms = None;
        body = Contains { phi = psi; psi = phi }
      }
  in
  Alcotest.(check bool) "equiv direction shared with contains" true
    again.Service.cached

(* --- served sat_under_doctype vs the conformance oracle --- *)

let doctype_pool =
  [ [];
    [ { Doctype.parent = "a"; at_least = [ (1, "b") ]; forbidden = [] } ];
    [ { Doctype.parent = "a"; at_least = []; forbidden = [ "c" ] } ];
    [ { Doctype.parent = "b"; at_least = [ (2, "c") ]; forbidden = [ "a" ] };
      { Doctype.parent = "c"; at_least = []; forbidden = [ "b" ] }
    ]
  ]

let arb_doctype_case =
  QCheck.pair
    (Gen_helpers.arb_node_cfg Gen_helpers.data_free_cfg)
    (QCheck.oneofl doctype_pool)

let test_doctype_witnesses_conform =
  Gen_helpers.qtest ~count:40 "served doctype witnesses conform"
    arb_doctype_case
    (fun (phi, rules) ->
      let resp =
        Corpus.solve svc
          { Request.id = "d";
            timeout_ms = None;
            body = Doctype { formula = phi; doctype = rules }
          }
      in
      let direct = Sat.decide_under_doctype ~doctype:rules phi in
      Service.verdict_name resp.Service.report.Sat.verdict
      = Service.verdict_name direct.Sat.verdict
      &&
      match resp.Service.report.Sat.verdict with
      | Sat.Sat w ->
        let labels =
          List.map Label.of_string (Doctype.rule_labels rules)
        in
        (* the served witness satisfies the formula somewhere AND is
           accepted by the direct conformance oracle *)
        Semantics.check_somewhere w phi
        && Doctype.conforms ~labels rules w
        && resp.Service.report.Sat.witness_verified = Some true
      | Sat.Unsat | Sat.Unsat_bounded _ | Sat.Unknown _ -> true)

(* A doctype-constrained verdict must not leak into (or out of) the
   unconstrained entry for the same formula, nor across doctypes. *)
let test_doctype_scope_separation () =
  let phi = f "<down[a & <down[c]>]>" in
  let forbid =
    [ { Doctype.parent = "a"; at_least = []; forbidden = [ "c" ] } ]
  in
  let sep = Service.create Service.Config.default in
  let plain =
    Corpus.solve sep { Request.id = "p"; timeout_ms = None; body = Sat phi }
  in
  Alcotest.(check string) "unconstrained sat" "sat"
    (Service.verdict_name plain.Service.report.Sat.verdict);
  let constrained =
    Corpus.solve sep
      { Request.id = "c";
        timeout_ms = None;
        body = Doctype { formula = phi; doctype = forbid }
      }
  in
  Alcotest.(check bool) "constrained not served from sat entry" false
    constrained.Service.cached;
  (match constrained.Service.report.Sat.verdict with
  | Sat.Unsat | Sat.Unsat_bounded _ -> ()
  | v ->
    Alcotest.failf "constrained should be unsat, got %s"
      (Service.verdict_name v));
  let unconstrained_again =
    Corpus.solve sep
      { Request.id = "e";
        timeout_ms = None;
        body = Doctype { formula = phi; doctype = [] }
      }
  in
  Alcotest.(check bool) "empty doctype is its own scope" false
    unconstrained_again.Service.cached;
  Alcotest.(check string) "empty doctype stays sat" "sat"
    (Service.verdict_name
       unconstrained_again.Service.report.Sat.verdict)

let test_kind_tagged_keys () =
  let phi = f "<down[a]>" and psi = f "<down[a & b]>" in
  let query = Containment.query phi psi in
  let fp = Service.Config.(fingerprint default_solver) in
  let _, sat_key = Cache_key.make ~config_fingerprint:fp query in
  let _, ct_key =
    Cache_key.make ~kind:"contains" ~config_fingerprint:fp query
  in
  let _, dt_key =
    Cache_key.make ~kind:"sat_under_doctype" ~salt:"a{1*b|}"
      ~config_fingerprint:fp query
  in
  let _, dt_key' =
    Cache_key.make ~kind:"sat_under_doctype" ~salt:"a{2*b|}"
      ~config_fingerprint:fp query
  in
  Alcotest.(check bool) "sat vs contains" true (sat_key <> ct_key);
  Alcotest.(check bool) "contains vs doctype" true (ct_key <> dt_key);
  Alcotest.(check bool) "doctype salt separates" true (dt_key <> dt_key');
  (* Service level: pre-solving ϕ∧¬ψ as sat never answers contains. *)
  let sep = Service.create Service.Config.default in
  let _ =
    Corpus.solve sep { Request.id = "s"; timeout_ms = None; body = Sat query }
  in
  let ct =
    Corpus.solve sep
      { Request.id = "c"; timeout_ms = None; body = Contains { phi; psi } }
  in
  Alcotest.(check bool) "contains not aliased to sat" false
    ct.Service.cached;
  Alcotest.(check int) "two cache entries" 2 (Service.cache_length sep)

(* --- the wire layer: closed schemas, structured doctype errors --- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_wire_schemas_closed () =
  let fails ~naming line =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names %S in %s" naming e)
        true (contains_sub e naming)
  in
  (* Closed schemas: each kind rejects fields outside its set. *)
  fails ~naming:"bogus"
    {|{"kind":"contains","phi":"<down[a]>","psi":"<down[a]>","bogus":1}|};
  fails ~naming:"formula"
    {|{"kind":"contains","phi":"a","psi":"a","formula":"a"}|};
  fails ~naming:"bogus"
    {|{"kind":"equiv","phi":"a","psi":"a","bogus":1}|};
  fails ~naming:"phi"
    {|{"kind":"sat_under_doctype","formula":"a","doctype":[],"phi":"a"}|};
  (* Required fields. *)
  fails ~naming:"psi" {|{"kind":"contains","phi":"<down[a]>"}|};
  fails ~naming:"doctype" {|{"kind":"sat_under_doctype","formula":"a"}|};
  (* The version gate applies to the new kinds. *)
  fails ~naming:"unsupported protocol version"
    {|{"v":2,"kind":"contains","phi":"a","psi":"a"}|};
  (* The unknown-kind error teaches all five verbs. *)
  (match Request.of_line {|{"kind":"frob","formula":"a"}|} with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error e ->
    List.iter
      (fun verb ->
        Alcotest.(check bool)
          (Printf.sprintf "unknown-kind error lists %s" verb)
          true (contains_sub e verb))
      [ "sat"; "eval"; "contains"; "equiv"; "sat_under_doctype" ]);
  (* New kinds decode into their request bodies. *)
  (match
     Request.of_line
       {|{"v":1,"id":"c","kind":"contains","phi":"<down[a]>","psi":"<down[b]>","timeout_ms":100}|}
   with
  | Ok ({ body = Request.Contains _; _ } as r) ->
    Alcotest.(check string) "contains id" "c" r.Request.id;
    Alcotest.(check (option (float 0.))) "contains timeout" (Some 100.)
      r.Request.timeout_ms
  | Ok _ -> Alcotest.fail "contains parsed as another kind"
  | Error e -> Alcotest.failf "contains rejected: %s" e);
  match
    Request.of_line
      {|{"kind":"sat_under_doctype","formula":"<down[a]>","doctype":[{"parent":"a","at_least":[[2,"b"]],"forbidden":["c"]}]}|}
  with
  | Ok { body = Request.Doctype { doctype; _ }; _ } ->
    Alcotest.(check int) "rules parsed" 1 (List.length doctype)
  | Ok _ -> Alcotest.fail "doctype parsed as another kind"
  | Error e -> Alcotest.failf "doctype rejected: %s" e

let test_wire_doctype_errors_structured () =
  let err line =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e -> e
  in
  (* An invalid doctype ([validate] rejects non-positive counts and
     duplicate parents) is a parse-time structured error — the solver
     never sees it, so it can never surface as a crash report. *)
  let e =
    err
      {|{"kind":"sat_under_doctype","formula":"a","doctype":[{"parent":"a","at_least":[[0,"b"]]}]}|}
  in
  Alcotest.(check bool) "non-positive count rejected" true
    (contains_sub e "doctype");
  Alcotest.(check bool) "not folded into a crash" false
    (contains_sub e "crash");
  let dup =
    err
      {|{"kind":"sat_under_doctype","formula":"a","doctype":[{"parent":"a"},{"parent":"a"}]}|}
  in
  Alcotest.(check bool) "duplicate parent rejected" true
    (contains_sub dup "doctype");
  (* Rule objects are closed too. *)
  let unk =
    err
      {|{"kind":"sat_under_doctype","formula":"a","doctype":[{"parent":"a","frob":1}]}|}
  in
  Alcotest.(check bool) "unknown rule field named" true
    (contains_sub unk "frob");
  (* Structural defects. *)
  List.iter
    (fun line -> ignore (err line))
    [ {|{"kind":"sat_under_doctype","formula":"a","doctype":"x"}|};
      {|{"kind":"sat_under_doctype","formula":"a","doctype":[42]}|};
      {|{"kind":"sat_under_doctype","formula":"a","doctype":[{"parent":"a","at_least":[["x","b"]]}]}|};
      {|{"kind":"sat_under_doctype","formula":"a","doctype":[{"parent":"a","forbidden":[1]}]}|}
    ]

let test_wire_end_to_end () =
  let t = Service.create Service.Config.default in
  let serve line = Service.handle_line t line in
  let member name line =
    match Json.parse line with
    | Ok v -> Json.member name v
    | Error _ -> None
  in
  let str name line = Option.bind (member name line) Json.to_str in
  (* contains: a holds answer, kind-tagged. *)
  let holds =
    serve
      {|{"kind":"contains","id":"w0","phi":"<down[a & b]>","psi":"<down[a]>"}|}
  in
  Alcotest.(check bool) "wire holds" true
    (match str "answer" holds with
    | Some ("holds" | "holds_bounded") -> true
    | _ -> false);
  Alcotest.(check (option string)) "contains kind" (Some "contains")
    (str "kind" holds);
  (* contains: a fails answer whose counterexample was verified and
     parses. *)
  let fails_line =
    {|{"kind":"contains","id":"w1","phi":"<down[a]>","psi":"<down[a & b]>"}|}
  in
  let fails = serve fails_line in
  Alcotest.(check (option string)) "wire answer" (Some "fails")
    (str "answer" fails);
  Alcotest.(check (option bool)) "counterexample verified" (Some true)
    (Option.bind (member "verified" fails) Json.to_bool);
  (match Option.bind (member "counterexample" fails) Json.to_str with
  | None -> Alcotest.fail "no counterexample on the wire"
  | Some text -> (
    match Data_tree.of_string text with
    | Ok w ->
      Alcotest.(check bool) "wire counterexample replays" true
        (Semantics.check_somewhere w
           (And (f "<down[a]>", B.not_ (f "<down[a & b]>"))))
    | Error e -> Alcotest.failf "wire counterexample unparsable: %s" e));
  (* The same line again is a memory hit. *)
  Alcotest.(check (option bool)) "re-served from cache" (Some true)
    (Option.bind (member "cached" (serve fails_line)) Json.to_bool);
  (* equiv: a syntactic variant is equivalent; a strict weakening is
     not, and its failing direction carries the counterexample. *)
  let eq =
    serve {|{"kind":"equiv","id":"w4","phi":"<down[a & b]>","psi":"<down[b & a]>"}|}
  in
  Alcotest.(check (option bool)) "equivalent true" (Some true)
    (Option.bind (member "equivalent" eq) Json.to_bool);
  let neq =
    serve {|{"kind":"equiv","id":"w2","phi":"<down[a & b]>","psi":"<down[a]>"}|}
  in
  Alcotest.(check (option bool)) "equivalent false" (Some false)
    (Option.bind (member "equivalent" neq) Json.to_bool);
  (match member "backward" neq with
  | Some dir ->
    Alcotest.(check (option string)) "backward fails" (Some "fails")
      (Option.bind (Json.member "answer" dir) Json.to_str);
    Alcotest.(check bool) "backward counterexample" true
      (Json.member "counterexample" dir <> None)
  | None -> Alcotest.fail "no backward direction");
  (* sat_under_doctype: kind-tagged response, parseable witness. *)
  let dt =
    serve
      {|{"kind":"sat_under_doctype","id":"w3","formula":"<down[a]>","doctype":[{"parent":"a","at_least":[[1,"b"]]}]}|}
  in
  Alcotest.(check (option string)) "doctype kind" (Some "sat_under_doctype")
    (str "kind" dt);
  Alcotest.(check (option string)) "doctype sat" (Some "sat")
    (str "verdict" dt);
  (match str "witness" dt with
  | None -> Alcotest.fail "no witness on the wire"
  | Some text -> (
    match Data_tree.of_string text with
    | Ok w ->
      Alcotest.(check bool) "wire witness satisfies the formula" true
        (Semantics.check_somewhere w (f "<down[a]>"));
      Alcotest.(check bool) "wire witness conforms" true
        (Doctype.conforms
           ~labels:[ Label.of_string "a"; Label.of_string "b" ]
           [ { Doctype.parent = "a"; at_least = [ (1, "b") ];
               forbidden = [] } ]
           w)
    | Error e -> Alcotest.failf "wire witness unparsable: %s" e));
  (* ...and unsat under a rule that forbids what the formula needs. *)
  let dt_unsat =
    serve
      {|{"kind":"sat_under_doctype","id":"w5","formula":"<down[a & <down[c]>]>","doctype":[{"parent":"a","forbidden":["c"]}]}|}
  in
  Alcotest.(check bool) "doctype unsat" true
    (match str "verdict" dt_unsat with
    | Some ("unsat" | "unsat_bounded") -> true
    | _ -> false);
  (* A schema-invalid line that still parses as JSON answers a
     structured error carrying the recovered request id. *)
  let bad =
    serve
      {|{"kind":"sat_under_doctype","id":"d9","formula":"a","doctype":[{"parent":"a","at_least":[[0,"b"]]}]}|}
  in
  Alcotest.(check (option string)) "error keeps id" (Some "d9")
    (Option.bind (member "id" bad) Json.to_str);
  Alcotest.(check bool) "error is structured" true
    (member "error" bad <> None);
  (* Metrics: the wire exchanges above landed in their own per-kind
     buckets (equiv counts its two directions as contains). *)
  let bucket kind = Corpus.metric (Service.metrics t) [ "requests_by_kind"; kind ] in
  Alcotest.(check (float 0.)) "contains bucket" 7. (bucket "contains");
  Alcotest.(check (float 0.)) "equiv bucket" 2. (bucket "equiv");
  Alcotest.(check (float 0.)) "doctype bucket" 2. (bucket "sat_under_doctype")

let suite =
  ( "containment_service",
    [ Alcotest.test_case "codec is parseable syntax" `Quick
        test_codec_is_parseable_syntax;
      test_codec_roundtrip_random;
      test_contains_fails_verified;
      Alcotest.test_case "equiv directions agree" `Quick
        test_equiv_directions_agree;
      test_doctype_witnesses_conform;
      Alcotest.test_case "doctype scope separation" `Quick
        test_doctype_scope_separation;
      Alcotest.test_case "kind-tagged cache keys" `Quick
        test_kind_tagged_keys;
      Alcotest.test_case "wire schemas closed" `Quick
        test_wire_schemas_closed;
      Alcotest.test_case "wire doctype errors structured" `Quick
        test_wire_doctype_errors_structured;
      Alcotest.test_case "wire end to end" `Quick test_wire_end_to_end
    ] )
