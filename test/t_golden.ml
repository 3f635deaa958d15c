(* The golden NDJSON transcript: one fixed request sequence through
   [Service.handle_line], every reply pinned byte for byte with its
   timing fields ("ms", "total_ms") blanked to [#]. It covers every
   request kind, eval replies with the root position, truncation,
   [limit: 0] and named/inline documents, a sat witness wide enough for
   its pretty-printer to wrap, labels that need quoting or escaping,
   numeric ids rendered through the JSON number printer, and every
   structured error. The sequence is stateful — later lines hit the
   caches that earlier ones filled — so the table runs in order against
   two long-lived services: [`Main] (default configuration, one
   registered document "d") and [`Tiny] (a two-state budget, for
   budget-bound answers). Any change to a wire renderer must keep this
   transcript identical. *)

module Service = Xpds_service.Service
module Data_tree = Xpds_datatree.Data_tree
module Doc = Xpds_eval.Doc

(* Replace the number after each timing key with [#]. *)
let strip_timing line =
  let keys = [ {|"ms":|}; {|"total_ms":|} ] in
  let n = String.length line in
  let buf = Buffer.create n in
  let at i key =
    let l = String.length key in
    i + l <= n && String.sub line i l = key
  in
  let rec go i =
    if i < n then
      match List.find_opt (at i) keys with
      | Some key ->
        Buffer.add_string buf key;
        Buffer.add_char buf '#';
        let j = ref (i + String.length key) in
        while
          !j < n
          && match line.[!j] with
             | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
             | _ -> false
        do
          incr j
        done;
        go !j
      | None ->
        Buffer.add_char buf line.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let doc_d =
  "r:0(a:1,b:2(a:3),c:4(a:5,a:6,a:7,a:8,a:9,a:10,a:11,a:12,a:13,a:14,\
   a:15(b:1)))"

let transcript =
  [
    ( `Main,
      {|{"id":"s1","formula":"<desc[b & down[b] != down[b]]>"}|},
      {|{"v":1,"id":"s1","verdict":"sat","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v*,v,=)","states":7,"transitions":11,"witness":"⟨b,2⟩(⟨b,2⟩, ⟨b,3⟩)","verified":true}|} );
    ( `Main,
      {|{"v":1,"id":"s2","kind":"sat","formula":"<desc[down[b] != down[b] & b]>"}|},
      {|{"v":1,"id":"s2","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v*,v,=)","states":7,"transitions":11,"witness":"⟨b,2⟩(⟨b,2⟩, ⟨b,3⟩)","verified":true}|} );
    ( `Main,
      {|{"id":"s3","formula":"a & ~a"}|},
      {|{"v":1,"id":"s3","verdict":"unsat_bounded","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":1,"transitions":2,"reason":"saturated at width 3 (paper bound 152)"}|} );
    ( `Main,
      {|{"id":7,"formula":"<down[\"a b\"]>"}|},
      {|{"v":1,"id":"7","verdict":"sat","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":2,"transitions":5,"witness":"⟨@other,0⟩(⟨a b,0⟩)","verified":true}|} );
    ( `Main,
      {|{"id":"s5","formula":"<down[abcdefghijklmnopqrstuvwxyz]> & <down[bcdefghijklmnopqrstuvwxyza]> & <down[cdefghijklmnopqrstuvwxyzab]>"}|},
      {|{"v":1,"id":"s5","verdict":"sat","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":28,"transitions":33,"witness":"⟨@other,0⟩(⟨abcdefghijklmnopqrstuvwxyz,0⟩,\n               ⟨bcdefghijklmnopqrstuvwxyza,0⟩,\n               ⟨cdefghijklmnopqrstuvwxyzab,0⟩)","verified":true}|} );
    ( `Main,
      {|{"id":"s6","formula":"<down[w1]> & <down[w2]> & <down[w3]> & <down[w4]> & <down[w5]> & <down[w6]> & <down[w7]> & <down[w8]>"}|},
      {|{"v":1,"id":"s6","verdict":"unsat_bounded","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":837,"transitions":846,"reason":"saturated at width 3 (paper bound 94680)"}|} );
    ( `Main,
      {|{"id":"s8","formula":"<down[\"q\\\"uote\"]> & <down[\"back\\\\slash\"]> & <down[\"tab\u0009x\"]>"}|},
      {|{"v":1,"id":"s8","verdict":"sat","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":28,"transitions":33,"witness":"⟨@other,0⟩(⟨q\"uote,0⟩, ⟨back\\slash,0⟩, ⟨tab\tx,0⟩)","verified":true}|} );
    ( `Main,
      {|{"id":"s9","formula":"<down[\"a b\" & c]>"}|},
      {|{"v":1,"id":"s9","verdict":"unsat_bounded","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":1,"transitions":6,"reason":"saturated at width 3 (paper bound 1104)"}|} );
    ( `Main,
      {|{"id":"s10","formula":"<down[c & \"a b\"]>"}|},
      {|{"v":1,"id":"s10","verdict":"unsat_bounded","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":1,"transitions":6,"reason":"saturated at width 3 (paper bound 1104)"}|} );
    ( `Tiny,
      {|{"id":"t1","formula":"<desc[b & down[b] != down[b]]>"}|},
      {|{"v":1,"id":"t1","verdict":"unknown","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v*,v,=)","states":2,"transitions":3,"reason":"state budget"}|} );
    ( `Tiny,
      {|{"id":"t2","kind":"contains","phi":"<down[a]>","psi":"<down[a & b]>"}|},
      {|{"v":1,"id":"t2","kind":"contains","answer":"fails","counterexample":"a:0(a:0)","verified":true,"cached":false,"tier":"solve","ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e1","formula":"<down[a]>","doc":"d"}|},
      {|{"v":1,"id":"e1","kind":"eval","root":true,"count":3,"nodes":["ε","1","2"],"doc_nodes":17,"node_evals":68,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e2","formula":"<down[a]>","doc":"d"}|},
      {|{"v":1,"id":"e2","kind":"eval","root":true,"count":3,"nodes":["ε","1","2"],"doc_nodes":17,"node_evals":68,"cached":true,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e3","formula":"a","doc":"d"}|},
      {|{"v":1,"id":"e3","kind":"eval","root":false,"count":13,"nodes":["0","1.0","2.0","2.1","2.2","2.3","2.4","2.5","2.6","2.7","2.8","2.9","2.10"],"doc_nodes":17,"node_evals":0,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e4","formula":"a","doc":"d","limit":3}|},
      {|{"v":1,"id":"e4","kind":"eval","root":false,"count":13,"nodes":["0","1.0","2.0"],"nodes_truncated":true,"doc_nodes":17,"node_evals":0,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e5","formula":"a","doc":"d","limit":0}|},
      {|{"v":1,"id":"e5","kind":"eval","root":false,"count":13,"nodes":[],"nodes_truncated":true,"doc_nodes":17,"node_evals":0,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e6","formula":"true","doc":"d","limit":1}|},
      {|{"v":1,"id":"e6","kind":"eval","root":true,"count":17,"nodes":["ε"],"nodes_truncated":true,"doc_nodes":17,"node_evals":17,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e7","formula":"<desc[b]>","doc":"d"}|},
      {|{"v":1,"id":"e7","kind":"eval","root":true,"count":5,"nodes":["ε","1","2","2.10","2.10.0"],"doc_nodes":17,"node_evals":68,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e8","formula":"false","doc":"d"}|},
      {|{"v":1,"id":"e8","kind":"eval","root":false,"count":0,"nodes":[],"doc_nodes":17,"node_evals":17,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e9","formula":"<down[a]> & <down[a]> != eps","tree":"r:0(a:1,b:2(a:3))"}|},
      {|{"v":1,"id":"e9","error":"bad formula: syntax error at offset 22: expected end of input, found '!='"}|} );
    ( `Main,
      {|{"kind":"eval","id":"e10","formula":"<down[x]>","xml":"<lib><book id='1'/><x/></lib>"}|},
      {|{"v":1,"id":"e10","kind":"eval","root":true,"count":1,"nodes":["ε"],"doc_nodes":4,"node_evals":16,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e11","formula":"<down[c]> | \"a b\"","tree":"\"a b\":1(c:2,\"a b\":3)"}|},
      {|{"v":1,"id":"e11","kind":"eval","root":true,"count":2,"nodes":["ε","1"],"doc_nodes":3,"node_evals":18,"cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e11b","formula":"<down[c]> | \"a b\"","tree":"\"a b\":1(c:2,\"a b\":3)"}|},
      {|{"v":1,"id":"e11b","kind":"eval","root":true,"count":2,"nodes":["ε","1"],"doc_nodes":3,"node_evals":18,"cached":true,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e12","formula":"a","doc":"nope"}|},
      {|{"v":1,"id":"e12","kind":"eval","error":"unknown document \"nope\" (serve it inline via \"xml\"/\"tree\", or register it at startup)","cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e13","formula":"a","xml":"<lib>"}|},
      {|{"v":1,"id":"e13","kind":"eval","error":"bad xml: XML error at offset 5: unterminated element","cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e14","formula":"a","tree":"a:1("}|},
      {|{"v":1,"id":"e14","kind":"eval","error":"bad tree: tree syntax error at offset 4: expected a label","cached":false,"ms":#}|} );
    ( `Main,
      {|{"kind":"eval","id":"e15","formula":"a","doc":"d","tree":"a:1"}|},
      {|{"v":1,"id":"e15","error":"ambiguous document: an eval request carries exactly one of \"doc\", \"xml\", \"tree\""}|} );
    ( `Main,
      {|{"kind":"eval","id":"e16","formula":"a"}|},
      {|{"v":1,"id":"e16","error":"missing document: an eval request carries exactly one of \"doc\", \"xml\", \"tree\""}|} );
    ( `Main,
      {|{"kind":"eval","id":"e17","formula":"a","doc":"d","limit":"ten"}|},
      {|{"v":1,"id":"e17","error":"\"limit\" must be an integer"}|} );
    ( `Main,
      {|{"kind":"eval","id":"e18","formula":"a","doc":"d","limit":2.5}|},
      {|{"v":1,"id":"e18","error":"\"limit\" must be an integer"}|} );
    ( `Main,
      {|{"kind":"eval","id":"e19","formula":"a","doc":"d","nodes":1}|},
      {|{"v":1,"id":"e19","error":"unknown field \"nodes\" (protocol v1 eval requests accept: v, id, kind, formula, doc, xml, tree, timeout_ms, limit)"}|} );
    ( `Main,
      {|{"kind":"contains","id":"c1","phi":"<down[a & b]>","psi":"<down[a]>"}|},
      {|{"v":1,"id":"c1","kind":"contains","answer":"holds_bounded","reason":"saturated at width 3 (paper bound 3624)","cached":false,"tier":"solve","ms":#}|} );
    ( `Main,
      {|{"kind":"contains","id":"c2","phi":"<down[a]>","psi":"<down[a & b]>"}|},
      {|{"v":1,"id":"c2","kind":"contains","answer":"fails","counterexample":"a:0(a:0)","verified":true,"cached":false,"tier":"solve","ms":#}|} );
    ( `Main,
      {|{"kind":"contains","id":"c3","phi":"<down[\"x y\"]>","psi":"<down[a]>"}|},
      {|{"v":1,"id":"c3","kind":"contains","answer":"fails","counterexample":"a:0(\"x y\":0)","verified":true,"cached":false,"tier":"solve","ms":#}|} );
    ( `Main,
      {|{"kind":"contains","id":"c4","phi":"<down[a]>"}|},
      {|{"v":1,"id":"c4","error":"missing \"psi\" field"}|} );
    ( `Main,
      {|{"kind":"equiv","id":"q1","phi":"<down[a & b]>","psi":"<down[b & a]>"}|},
      {|{"v":1,"id":"q1","kind":"equiv","equivalent":true,"forward":{"answer":"holds_bounded","reason":"saturated at width 3 (paper bound 1104)","cached":false,"tier":"solve","ms":#},"backward":{"answer":"holds_bounded","reason":"saturated at width 3 (paper bound 1104)","cached":true,"tier":"memory","ms":#},"ms":#}|} );
    ( `Main,
      {|{"kind":"equiv","id":"q2","phi":"<down[a]>","psi":"<down[a & b]>"}|},
      {|{"v":1,"id":"q2","kind":"equiv","equivalent":false,"forward":{"answer":"fails","counterexample":"a:0(a:0)","verified":true,"cached":true,"tier":"memory","ms":#},"backward":{"answer":"holds_bounded","reason":"saturated at width 3 (paper bound 3624)","cached":true,"tier":"memory","ms":#},"ms":#}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"d1","formula":"<down[a]>","doctype":[{"parent":"a","at_least":[[1,"b"]],"forbidden":["c"]}]}|},
      {|{"v":1,"id":"d1","kind":"sat_under_doctype","verdict":"sat","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":13,"transitions":158,"witness":"b:0(a:0(b:0))","verified":true}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"d2","formula":"a & <down[c]>","doctype":[{"parent":"a","forbidden":["c"]}]}|},
      {|{"v":1,"id":"d2","kind":"sat_under_doctype","verdict":"unsat_bounded","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":11,"transitions":1092,"reason":"saturated at width 3 (paper bound 2120)"}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"d3","formula":"a","doctype":[{"parent":"a"},{"parent":"a"}]}|},
      {|{"v":1,"id":"d3","error":"bad doctype: several rules for the same label"}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"d4","formula":"a","doctype":[{"parent":"a","at_least":[[0,"b"]]}]}|},
      {|{"v":1,"id":"d4","error":"bad doctype: at_least with a count < 1"}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"d5","formula":"a","doctype":[{"parent":"a","extra":1}]}|},
      {|{"v":1,"id":"d5","error":"bad doctype: unknown rule field \"extra\" (rules accept: parent, at_least, forbidden)"}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"d6","formula":"a"}|},
      {|{"v":1,"id":"d6","error":"missing \"doctype\" field (an array of rule objects)"}|} );
    ( `Main,
      {|not json|},
      {|{"v":1,"error":"bad JSON: expected null at offset 0"}|} );
    ( `Main,
      {|[1,2]|},
      {|{"v":1,"error":"request must be a JSON object"}|} );
    ( `Main,
      {|{"v":2,"id":"x1","formula":"a"}|},
      {|{"v":1,"id":"x1","error":"unsupported protocol version 2 (this server speaks v1)"}|} );
    ( `Main,
      {|{"v":"1","id":"x2","formula":"a"}|},
      {|{"v":1,"id":"x2","error":"unsupported protocol version \"1\" (this server speaks v1)"}|} );
    ( `Main,
      {|{"v":1.5,"id":"x3","formula":"a"}|},
      {|{"v":1,"id":"x3","error":"unsupported protocol version 1.5 (this server speaks v1)"}|} );
    ( `Main,
      {|{"id":"x4","formula":"a","timeout":5}|},
      {|{"v":1,"id":"x4","error":"unknown field \"timeout\" (protocol v1 sat requests accept: v, id, kind, formula, timeout_ms)"}|} );
    ( `Main,
      {|{"id":"x5","kind":"frobnicate"}|},
      {|{"v":1,"id":"x5","error":"unknown request kind \"frobnicate\" (protocol v1 speaks: sat, eval, contains, equiv, sat_under_doctype)"}|} );
    ( `Main,
      {|{"id":"x6"}|},
      {|{"v":1,"id":"x6","error":"missing \"formula\" field"}|} );
    ( `Main,
      {|{"id":"x7","formula":"a &"}|},
      {|{"v":1,"id":"x7","error":"bad formula: syntax error at offset 3: expected a node expression, found end of input"}|} );
    ( `Main,
      {|{"id":"x8","formula":5}|},
      {|{"v":1,"id":"x8","error":"missing \"formula\" field"}|} );
    ( `Main,
      {|{"id":1.5,"formula":"a"}|},
      {|{"v":1,"id":"1.5","verdict":"sat","cached":false,"tier":"solve","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"id":-0,"formula":"a"}|},
      {|{"v":1,"id":"-0","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"id":1e20,"formula":"a"}|},
      {|{"v":1,"id":"1e+20","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"id":123456789012,"formula":"a"}|},
      {|{"v":1,"id":"123456789012","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"id":0.0005,"formula":"a"}|},
      {|{"v":1,"id":"0.0005","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"id":"a\u0001b\"c\\d\ne","formula":"a"}|},
      {|{"v":1,"id":"a\u0001b\"c\\d\ne","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"id":"x9","formula":"a","timeout_ms":"soon"}|},
      {|{"v":1,"id":"x9","verdict":"sat","cached":true,"tier":"memory","ms":#,"fragment":"XPath(v)","states":0,"transitions":1,"witness":"⟨a,0⟩","verified":true}|} );
    ( `Main,
      {|{"formula":"a"} trailing|},
      {|{"v":1,"error":"bad JSON: trailing garbage at offset 16"}|} );
    ( `Main,
      {|{"id":"x10","formula":"a",}|},
      {|{"v":1,"error":"bad JSON: expected '\"' at offset 26"}|} );
    ( `Main,
      {|{"id":"x11","kind":"sat","formula":"a","limit":3}|},
      {|{"v":1,"id":"x11","error":"unknown field \"limit\" (protocol v1 sat requests accept: v, id, kind, formula, timeout_ms)"}|} );
    ( `Main,
      {|{"id":"x12","kind":"contains","phi":"a","psi":"b","formula":"c"}|},
      {|{"v":1,"id":"x12","error":"unknown field \"formula\" (protocol v1 contains requests accept: v, id, kind, phi, psi, timeout_ms)"}|} );
    ( `Main,
      {|{"kind":"equiv","id":"x13","phi":"a","psi":"b","formula":"c"}|},
      {|{"v":1,"id":"x13","error":"unknown field \"formula\" (protocol v1 equiv requests accept: v, id, kind, phi, psi, timeout_ms)"}|} );
    ( `Main,
      {|{"kind":"sat_under_doctype","id":"x14","formula":"a","doctype":[],"phi":"b"}|},
      {|{"v":1,"id":"x14","error":"unknown field \"phi\" (protocol v1 sat_under_doctype requests accept: v, id, kind, formula, doctype, timeout_ms)"}|} );
    ( `Main,
      {|{"id":42,"formula":"a","timeout":5}|},
      {|{"v":1,"id":"42","error":"unknown field \"timeout\" (protocol v1 sat requests accept: v, id, kind, formula, timeout_ms)"}|} );
    ( `Main,
      {|{"id":43,"formula":"a &"}|},
      {|{"v":1,"id":"43","error":"bad formula: syntax error at offset 3: expected a node expression, found end of input"}|} );
  ]

let test_transcript () =
  let main = Service.create Service.Config.default in
  (match
     Service.register_doc main ~name:"d"
       (Doc.of_tree (Data_tree.of_string_exn doc_d))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let tiny =
    Service.create Service.Config.(default |> with_max_states 2)
  in
  List.iteri
    (fun i (svc, request, expected) ->
      let svc = match svc with `Main -> main | `Tiny -> tiny in
      Alcotest.(check string)
        (Printf.sprintf "line %d: %s" (i + 1) request)
        expected
        (strip_timing (Service.handle_line svc request)))
    transcript

let test_strip_timing () =
  Alcotest.(check string) "timing fields blanked"
    {|{"ms":#,"a":{"total_ms":#,"ms":#},"xms":1}|}
    (strip_timing {|{"ms":0.012,"a":{"total_ms":1e-05,"ms":3},"xms":1}|})

let suite =
  ( "wire golden",
    [ Alcotest.test_case "strip timing fields" `Quick test_strip_timing;
      Alcotest.test_case "NDJSON transcript" `Quick test_transcript
    ] )
