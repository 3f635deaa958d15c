(* Tests for the certificate subsystem: emission, independent checking,
   JSON round trips, and a mutation suite asserting that corrupted
   certificates are rejected. *)

module Cert = Xpds_cert.Cert
module Sat = Xpds_decision.Sat
module Ext_state = Xpds_decision.Ext_state
module Data_tree = Xpds_datatree.Data_tree
module Metrics = Xpds_service.Metrics
module Emptiness = Xpds_decision.Emptiness

let parse s =
  match Xpds_xpath.Parser.formula_of_string s with
  | Ok f -> Xpds_xpath.Ast.as_node f
  | Error e -> Alcotest.failf "parse %S: %s" s e

let cert_of s =
  let report =
    Sat.decide
      ~options:Sat.Options.(default |> with_certificate true)
      (parse s)
  in
  match Cert.of_report report with
  | Ok c -> c
  | Error e -> Alcotest.failf "no certificate for %S: %s" s e

(* Fixtures. [down[a] = down[b]] is SAT with a 3-node witness;
   [<down[a & b]>] is UNSAT with a 3-state basis, so the naive closure
   check runs in under a millisecond. *)
let sat_cert = lazy (cert_of "down[a] = down[b]")
let unsat_cert = lazy (cert_of "<down[a & b]>")

let check_accepts name cert expect =
  match Cert.check cert with
  | Error e -> Alcotest.failf "%s rejected: %s" name e
  | Ok v -> (
    match (expect, v) with
    | `Sat, Cert.Cert_sat | `Unsat_bounded, Cert.Cert_unsat_bounded _ -> ()
    | _ ->
      Alcotest.failf "%s: unexpected verdict %s" name
        (Format.asprintf "%a" Cert.pp_verdict v))

let test_sat_accepted () =
  check_accepts "sat cert" (Lazy.force sat_cert) `Sat

let test_unsat_accepted () =
  (* Default practical bounds are far below the paper's completeness
     bounds, so the verdict must be the bounded one. *)
  check_accepts "unsat cert" (Lazy.force unsat_cert) `Unsat_bounded

(* Certificate mode takes the witness lift: data_chain sat 4, which the
   general engine leaves [Unknown] on its budget, is lifted from its
   relaxation's witness with a seed that has no basis, and the witness
   certifies. *)
let test_lifted_sat_accepted () =
  let report =
    Sat.decide
      ~options:Sat.Options.(default |> with_certificate true)
      (Families.data_chain ~sat:true 4)
  in
  Alcotest.(check string) "algorithm" "data-free relaxation: witness lift"
    report.Sat.algorithm;
  (match report.Sat.cert_seed with
  | Some { Sat.cs_basis = None; _ } -> ()
  | _ -> Alcotest.fail "a lifted witness has a seed without a basis");
  match Cert.of_report report with
  | Error e -> Alcotest.failf "no certificate: %s" e
  | Ok cert -> (
    match cert.Cert.payload with
    | Cert.Sat_cert _ -> (
      match Cert.of_string (Cert.to_string cert) with
      | Ok c -> check_accepts "lifted sat cert" c `Sat
      | Error e -> Alcotest.failf "round trip: %s" e)
    | Cert.Unsat_cert _ -> Alcotest.fail "a lifted witness is a Sat_cert")

let payload_equal p1 p2 =
  match (p1, p2) with
  | Cert.Sat_cert w1, Cert.Sat_cert w2 ->
    Data_tree.to_string w1 = Data_tree.to_string w2
  | ( Cert.Unsat_cert { bounds = b1; q_card = q1; k_card = k1; basis = s1 },
      Cert.Unsat_cert { bounds = b2; q_card = q2; k_card = k2; basis = s2 } )
    ->
    b1 = b2 && q1 = q2 && k1 = k2
    && Array.length s1 = Array.length s2
    && Array.for_all2 Ext_state.equal s1 s2
  | _ -> false

let roundtrip name cert =
  match Cert.of_string (Cert.to_string cert) with
  | Error e -> Alcotest.failf "%s roundtrip: %s" name e
  | Ok cert' ->
    Alcotest.(check string)
      (name ^ " formula") cert.Cert.formula cert'.Cert.formula;
    Alcotest.(check (list string))
      (name ^ " labels") cert.Cert.labels cert'.Cert.labels;
    Alcotest.(check string)
      (name ^ " fingerprint") cert.Cert.fingerprint cert'.Cert.fingerprint;
    Alcotest.(check bool)
      (name ^ " payload") true
      (payload_equal cert.Cert.payload cert'.Cert.payload);
    (* Serialization is stable: a reparsed certificate prints the same
       bytes (basis order and bit-set encodings are canonical). *)
    Alcotest.(check string)
      (name ^ " stable") (Cert.to_string cert) (Cert.to_string cert');
    check_accepts (name ^ " reparsed") cert'
      (match cert.Cert.payload with
      | Cert.Sat_cert _ -> `Sat
      | Cert.Unsat_cert _ -> `Unsat_bounded)

let test_roundtrip_sat () = roundtrip "sat" (Lazy.force sat_cert)
let test_roundtrip_unsat () = roundtrip "unsat" (Lazy.force unsat_cert)

(* --- the mutation suite ---

   Every mutant below must be rejected by [Cert.check]; the count is
   asserted at the end so the suite keeps its advertised >= 100
   corrupted certificates as fixtures evolve. *)

let mutants_tried = ref 0

let expect_reject what cert =
  incr mutants_tried;
  match Cert.check cert with
  | Error _ -> ()
  | Ok v ->
    Alcotest.failf "mutant accepted (%s): %s" what
      (Format.asprintf "%a" Cert.pp_verdict v)

(* Corrupting any hex digit of the fingerprint must be caught by the
   recomputation — 32 mutants per certificate. *)
let test_fingerprint_mutants () =
  List.iter
    (fun (name, cert) ->
      String.iteri
        (fun i c ->
          let flipped = if c = '0' then 'f' else '0' in
          let fp = Bytes.of_string cert.Cert.fingerprint in
          Bytes.set fp i flipped;
          expect_reject
            (Printf.sprintf "%s fingerprint[%d]" name i)
            { cert with Cert.fingerprint = Bytes.to_string fp })
        cert.Cert.fingerprint)
    [ ("sat", Lazy.force sat_cert); ("unsat", Lazy.force unsat_cert) ]

(* Dropping any basis state breaks inductive closure: states are stored
   in discovery order, so the producers of the dropped state are still
   present and re-derive it (or, for a leaf state, the leaves check
   fails first). *)
let test_basis_drop_mutants () =
  let cert = Lazy.force unsat_cert in
  match cert.Cert.payload with
  | Cert.Sat_cert _ -> Alcotest.fail "unsat fixture is sat"
  | Cert.Unsat_cert { bounds; q_card; k_card; basis = full } ->
    let n = Array.length full in
    Alcotest.(check bool) "nonempty basis" true (n > 0);
    for i = 0 to n - 1 do
      let basis =
        Array.of_list
          (List.filteri (fun j _ -> j <> i) (Array.to_list full))
      in
      expect_reject
        (Printf.sprintf "basis drop %d" i)
        { cert with
          Cert.payload = Cert.Unsat_cert { bounds; q_card; k_card; basis }
        }
    done

(* Renaming an alphabet label desynchronizes the recorded automaton from
   the formula; the fingerprint (which covers the label list) trips. *)
let test_label_mutants () =
  List.iter
    (fun (name, cert) ->
      List.iteri
        (fun i _ ->
          let labels =
            List.mapi
              (fun j l -> if i = j then "zzz_mutant" else l)
              cert.Cert.labels
          in
          expect_reject
            (Printf.sprintf "%s label[%d]" name i)
            { cert with Cert.labels })
        cert.Cert.labels)
    [ ("sat", Lazy.force sat_cert); ("unsat", Lazy.force unsat_cert) ]

(* Witness mutations. The SAT fixture's witness is a(2)(a(2), b(2)) and
   the formula demands an a-child and a b-child sharing a datum: any
   fresh datum on either child, or any label flip on a node, breaks
   it. *)
(* Apply [f] to the [n]-th node of [t] in preorder (the mutated node's
   subtree is not traversed further). *)
let map_nth_node f n t =
  let counter = ref (-1) in
  let rec go t =
    incr counter;
    if !counter = n then f t
    else
      Data_tree.make (Data_tree.label t) (Data_tree.data t)
        (List.map go (Data_tree.children t))
  in
  go t

let with_witness cert w = { cert with Cert.payload = Cert.Sat_cert w }

let test_witness_data_mutants () =
  let cert = Lazy.force sat_cert in
  match cert.Cert.payload with
  | Cert.Unsat_cert _ -> Alcotest.fail "sat fixture is unsat"
  | Cert.Sat_cert w ->
    (* Fresh data on either child (preorder nodes 1 and 2). *)
    List.iter
      (fun node ->
        List.iter
          (fun d ->
            let retag t =
              Data_tree.make (Data_tree.label t) d (Data_tree.children t)
            in
            let w' = map_nth_node retag node w in
            expect_reject
              (Printf.sprintf "witness node %d data %d" node d)
              (with_witness cert w'))
          (List.init 15 (fun i -> 100 + i)))
      [ 1; 2 ]

let test_witness_label_mutants () =
  let cert = Lazy.force sat_cert in
  match cert.Cert.payload with
  | Cert.Unsat_cert _ -> Alcotest.fail "sat fixture is unsat"
  | Cert.Sat_cert w ->
    List.iter
      (fun (node, fresh) ->
        let retag t =
          Data_tree.make
            (Xpds_datatree.Label.of_string fresh)
            (Data_tree.data t) (Data_tree.children t)
        in
        let w' = map_nth_node retag node w in
        expect_reject
          (Printf.sprintf "witness node %d label %s" node fresh)
          (with_witness cert w'))
      (* The root's label is unconstrained by the fixture formula, so
         only the children are load-bearing. *)
      [ (1, "b"); (1, "c"); (2, "a"); (2, "c") ]

(* QCheck: random single-node data corruptions of the witness — every
   datum in the fixture witness is load-bearing except the root's, so
   restrict to the children. *)
let prop_random_witness_corruption =
  Gen_helpers.qtest ~count:100 "random witness corruption rejected"
    QCheck.(pair (int_range 1 2) (int_range 50 1_000_000))
    (fun (node, d) ->
      let cert = Lazy.force sat_cert in
      match cert.Cert.payload with
      | Cert.Unsat_cert _ -> false
      | Cert.Sat_cert w ->
        let retag t =
          Data_tree.make (Data_tree.label t) d (Data_tree.children t)
        in
        let w' = map_nth_node retag node w in
        incr mutants_tried;
        Result.is_error (Cert.check (with_witness cert w')))

(* QCheck: every certificate emitted for a random star-free formula
   passes the independent checker. A budget [Unknown] emits none. *)
let random_cert_options =
  Sat.Options.(
    default |> with_certificate true |> with_max_states 2_000
    |> with_max_transitions 30_000
    |> with_extra_labels
         (List.map Xpds_datatree.Label.of_string Gen_helpers.default_labels))

let prop_random_certificates_check =
  Gen_helpers.qtest ~count:30 "random formulas' certificates check"
    (Gen_helpers.arb_node_cfg Gen_helpers.star_free_cfg)
    (fun phi ->
      match Cert.of_report (Sat.decide ~options:random_cert_options phi) with
      | Error _ -> true
      | Ok cert -> (
        match Cert.check cert with
        | Ok _ -> true
        | Error e -> QCheck.Test.fail_reportf "certificate rejected: %s" e))

let test_mutant_count () =
  Alcotest.(check bool)
    (Printf.sprintf "tried %d mutants (>= 100)" !mutants_tried)
    true
    (!mutants_tried >= 100)

(* --- metrics JSON shape --- *)

(* Pin the JSON rendering of the certificate counters so dashboard
   consumers notice schema drift in review. *)
let test_metrics_cert_shape () =
  let m = Metrics.create () in
  Metrics.record_cert m ~ok:true ~ms:2.0;
  Metrics.record_cert m ~ok:true ~ms:4.0;
  Metrics.record_cert m ~ok:false ~ms:6.0;
  let json = Metrics.to_json m in
  let cert path = Corpus.metric json ("certificates" :: path) in
  Alcotest.(check (float 0.)) "certified" 2. (cert [ "certified" ]);
  Alcotest.(check (float 0.)) "failures" 1. (cert [ "check_failures" ]);
  Alcotest.(check (float 1e-9)) "mean" 4.0 (cert [ "latency_ms"; "mean" ]);
  Alcotest.(check (float 1e-9)) "max" 6.0 (cert [ "latency_ms"; "max" ]);
  let certs =
    match Json.member "certificates" json with
    | Some c -> c
    | None -> Alcotest.fail "no certificates object in metrics JSON"
  in
  Alcotest.(check string)
    "certificates JSON"
    {|{"certified":2,"check_failures":1,"latency_ms":{"n":3,"mean":4,"max":6}}|}
    (Json.to_string certs);
  (* The top-level keys, pinned: a renamed or dropped field must fail. *)
  let keys =
    match json with
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "metrics JSON is not an object"
  in
  Alcotest.(check (list string))
    "top-level keys"
    [ "requests"; "cache_hits"; "cache_misses"; "verdicts";
      "deadline_timeouts"; "requests_by_kind"; "eval"; "single_flight";
      "crashes"; "tiers"; "store"; "phase_totals_ms";
      "latency_ms"; "fixpoint"; "certificates"
    ]
    keys

(* An UNSAT certificate written by [xpds sat '<down[a & b]>' --cert-out]
   before the search bounds became one record: its bounds encoding, its
   fingerprint and the checker's verdict text must not move. *)
let test_stored_unsat_fixture () =
  match Cert.of_file "fixtures/unsat_r2.cert.json" with
  | Error e -> Alcotest.failf "fixture unreadable: %s" e
  | Ok cert -> (
    match Cert.check cert with
    | Error e -> Alcotest.failf "fixture rejected: %s" e
    | Ok v ->
      Alcotest.(check string) "verdict text"
        "certified UNSAT within bounds (inductive for width 3 (paper bound \
         1104), t0 6 (paper 130), dup_cap 2, merge budget 5)"
        (Format.asprintf "%a" Cert.pp_verdict v))

(* A certificate records the width its search ran at, also when the
   options leave it to the paper's u0, so its "width" is always a
   number; the reader rejects a null one rather than walk every width
   up to u0. ε ≠ ε under the paper's bounds: |K| = 6, u0 = 480. *)
let test_width_recorded () =
  let options =
    Sat.Options.with_certificate true
      { Sat.Options.default with Sat.Options.bounds = Xpds_decision.Bounds.paper }
  in
  let cert =
    match Cert.of_report (Sat.decide ~options (parse "eps != eps")) with
    | Ok c -> c
    | Error e -> Alcotest.failf "no certificate: %s" e
  in
  (match cert.Cert.payload with
  | Cert.Unsat_cert { bounds; _ } ->
    Alcotest.(check (option int)) "recorded width" (Some 480)
      bounds.Cert.width
  | Cert.Sat_cert _ -> Alcotest.fail "eps != eps certified sat");
  (match Cert.check cert with
  | Ok Cert.Cert_unsat -> ()
  | Ok v -> Alcotest.failf "verdict: %a" Cert.pp_verdict v
  | Error e -> Alcotest.failf "rejected: %s" e);
  let text = Cert.to_string cert in
  let key = {|"width":480|} in
  let rec find i =
    if i + String.length key > String.length text then
      Alcotest.fail "no width 480 in the JSON"
    else if String.sub text i (String.length key) = key then i
    else find (i + 1)
  in
  let i = find 0 in
  let nulled =
    String.sub text 0 i ^ {|"width":null|}
    ^ String.sub text (i + String.length key)
        (String.length text - i - String.length key)
  in
  match Cert.of_string nulled with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a null width was read"

let suite =
  ( "cert",
    [ Alcotest.test_case "sat cert accepted" `Quick test_sat_accepted;
      Alcotest.test_case "unsat cert accepted" `Quick test_unsat_accepted;
      Alcotest.test_case "lifted sat cert accepted" `Quick
        test_lifted_sat_accepted;
      Alcotest.test_case "json roundtrip sat" `Quick test_roundtrip_sat;
      Alcotest.test_case "json roundtrip unsat" `Quick test_roundtrip_unsat;
      Alcotest.test_case "stored unsat certificate accepted" `Quick
        test_stored_unsat_fixture;
      Alcotest.test_case "width recorded, null width rejected" `Quick
        test_width_recorded;
      Alcotest.test_case "fingerprint mutants rejected" `Quick
        test_fingerprint_mutants;
      Alcotest.test_case "basis drop mutants rejected" `Quick
        test_basis_drop_mutants;
      Alcotest.test_case "label mutants rejected" `Quick test_label_mutants;
      Alcotest.test_case "witness data mutants rejected" `Quick
        test_witness_data_mutants;
      Alcotest.test_case "witness label mutants rejected" `Quick
        test_witness_label_mutants;
      prop_random_witness_corruption;
      prop_random_certificates_check;
      Alcotest.test_case "mutation count >= 100" `Quick test_mutant_count;
      Alcotest.test_case "metrics certificate counters" `Quick
        test_metrics_cert_shape
    ] )
