(* Bulk-evaluation benchmark and differential gate.

   Measures the array-encoded evaluator (Xpds.Eval) against the
   tree-walking oracle (Xpds.Semantics) on one deterministic document
   and a fixed query set, three ways: the oracle, a cold evaluator
   (empty memo), and a warm evaluator (second pass over the same
   queries — pure memo replay, the served batch workload). Every query's
   selected-position set must be bit-identical between the two engines;
   quick mode additionally gates on the warm evaluator being >= 10x
   faster than the oracle, which is what BENCH_eval.json records and CI
   uploads. Two more legs are gated the same way: an encoded-XML
   document, and a deep chain (600 nodes quick, 1000 full, 71 data
   values) under star and data-comparison queries, timed cold on both
   engines.

   Run with: xpds bench eval [--quick]
         or: dune exec bench/main.exe -- eval *)

module Data_tree = Xpds.Data_tree
module Semantics = Xpds.Semantics
module Eval = Xpds.Eval
module Eval_doc = Xpds.Eval_doc
module Parser = Xpds.Parser
module Json = Xpds.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A deterministic document: label and branching drawn from the node's
   preorder id, data from a small residue class so equalities are
   plentiful. [target] bounds the node count from below-ish; the actual
   count is reported. *)
let labels = [| "a"; "b"; "c"; "d"; "lib" |]

let make_tree ~target =
  let next = ref 0 in
  let rec go depth =
    let id = !next in
    incr next;
    let label = labels.(id mod Array.length labels) in
    let datum = id * 7 mod 23 in
    let n_children =
      if depth >= 14 || !next >= target then 0 else 1 + (id * 13 mod 4)
    in
    let children = ref [] in
    for _ = 1 to n_children do
      if !next < target then children := go (depth + 1) :: !children
    done;
    Data_tree.node label datum (List.rev !children)
  in
  go 0

(* The query set: every connective and axis of the downward logic
   (label tests, boolean structure, child/descendant, data equalities,
   Kleene star), plus seeded random regXPath formulas. *)
let queries () =
  List.map Parser.node_of_string_exn
    [ "true";
      "a";
      "a | b";
      "<down[c]>";
      "<down[b & <down[c]>]>";
      "<desc[d]>";
      "<desc[a & <down[b]>]>";
      "~<desc[c]>";
      "<desc[b]> & <desc[c]>";
      "eps = down[a]";
      "eps != down";
      "down[a] != down[b]";
      "desc[a] = desc[b]";
      "<down*[c]>";
      "<(down/down)*[a]>";
      "<(down/down)*[a & eps = down]>";
      "<desc[eps != down[b]]>";
      "<down[<down[c & eps = down]>]>"
    ]
  @ List.init 8 (fun i ->
        Gen_formula.gen ~state:(Random.State.make [| 0xE7A1; i |]) ())

let sorted_positions l = List.sort Xpds.Path.compare l

(* One XML leg: the Appendix-A encoding evaluated through Eval_doc.of_xml
   must agree with Semantics on the encoded tree. *)
let xml_source () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<lib>";
  for i = 0 to 59 do
    Buffer.add_string buf
      (Printf.sprintf
         "<book id='%d' shelf='s%d'><ref to='%d'/><ref to='%d'/></book>"
         i (i mod 7) ((i + 1) mod 60) (i * 3 mod 60))
  done;
  Buffer.add_string buf "</lib>";
  Buffer.contents buf

let xml_queries =
  [ "<down[book & <down[ref]>]>";
    "<desc[to]>";
    "<desc[book & down[id] != down[shelf]]>";
    "<desc[ref & eps = eps]>"
  ]

(* A deep-chain leg: one path of [n] nodes with 71 distinct data values,
   so the star dynamic program runs over the longest possible rows and
   data-class images span two words. *)
let make_chain n =
  let rec go id =
    Data_tree.node
      labels.(id mod Array.length labels)
      (id * 7 mod 71)
      (if id + 1 < n then [ go (id + 1) ] else [])
  in
  go 0

let chain_queries =
  [ "eps = (down)*[a]";
    "eps != (down/down)*[b]";
    "<(desc/down)*[c & eps = down/down]>";
    "<(down/down)*[a & eps = down]>";
    "down[a] = (down)*[b]";
    "<desc[eps = (down[b])*/down[c]]>";
    "eps = desc[d]"
  ]

let run ?(quick = false) ?(out = "BENCH_eval.json") () =
  let target = if quick then 1_300 else 3_000 in
  let tree = make_tree ~target in
  let doc = Eval_doc.of_tree tree in
  let n = doc.Eval_doc.n in
  let qs = queries () in
  let nq = List.length qs in
  Format.printf "eval bench: %d-node document, %d queries%s@." n nq
    (if quick then " (quick)" else "");

  (* Oracle pass. *)
  let env = Semantics.env_of_tree tree in
  let oracle, oracle_s =
    time (fun () -> List.map (fun q -> Semantics.sat_nodes env q) qs)
  in
  Format.printf "  semantics:  %.3f s (%.0f queries/s)@." oracle_s
    (float_of_int nq /. oracle_s);

  (* Cold evaluator: empty memo, then the warm replay over the same
     queries — the cross-request batching case the service serves. *)
  let ev = Eval.create doc in
  let cold, cold_s =
    time (fun () -> List.map (fun q -> Eval.selected_positions ev q) qs)
  in
  let work = Eval.node_evals ev in
  Format.printf "  eval cold:  %.3f s (%.0f queries/s, %d node evals)@."
    cold_s
    (float_of_int nq /. cold_s)
    work;
  (* Warm replay is the served request shape: the memoized node set,
     its cardinality, and the first [limit] positions — not the full
     position list, which no server response materialises. *)
  let limit = 100 in
  let serve_one q =
    let set = Eval.nodes ev q in
    let shown = ref [] in
    let taken = ref 0 in
    (try
       Xpds.Bitv.iter
         (fun x ->
           if !taken >= limit then raise Exit;
           shown := Eval_doc.position doc x :: !shown;
           incr taken)
         set
     with Exit -> ());
    (Xpds.Bitv.cardinal set, !shown)
  in
  let warm, warm_s = time (fun () -> List.map serve_one qs) in
  Format.printf "  eval warm:  %.4f s (%.0f queries/s)@." warm_s
    (float_of_int nq /. warm_s);

  (* Bit-identical selected positions against the oracle (cold pass),
     and the warm replay must report the same cardinalities. *)
  let agree =
    List.for_all2
      (fun o c -> sorted_positions c = sorted_positions o)
      oracle cold
    && List.for_all2
         (fun c (wc, _) -> List.length c = wc)
         cold warm
  in
  Format.printf "  positions agree: %b@." agree;

  (* XML leg: encoded document, attribute-shaped queries. *)
  let xml = Xpds.Xml_doc.parse_exn (xml_source ()) in
  let xdoc = Eval_doc.of_xml xml in
  let xenv = Semantics.env_of_tree (Xpds.Xml_doc.to_data_tree xml) in
  let xev = Eval.create xdoc in
  let xml_agree =
    List.for_all
      (fun q ->
        let q = Parser.node_of_string_exn q in
        sorted_positions (Eval.selected_positions xev q)
        = sorted_positions (Semantics.sat_nodes xenv q))
      xml_queries
  in
  Format.printf "  xml positions agree: %b@." xml_agree;

  (* Chain leg: star and data-comparison queries, gated position for
     position against the oracle, each engine timed cold. *)
  let chain_n = if quick then 600 else 1_000 in
  let chain = make_chain chain_n in
  let cenv = Semantics.env_of_tree chain in
  let cev = Eval.create (Eval_doc.of_tree chain) in
  let chain_runs =
    List.map
      (fun text ->
        let q = Parser.node_of_string_exn text in
        let o, o_s = time (fun () -> Semantics.sat_nodes cenv q) in
        let c, c_s = time (fun () -> Eval.selected_positions cev q) in
        Format.printf "  chain %-40s semantics %.3f s, eval %.4f s@." text o_s
          c_s;
        (text, sorted_positions o = sorted_positions c, o_s, c_s))
      chain_queries
  in
  let chain_agree = List.for_all (fun (_, a, _, _) -> a) chain_runs in
  let chain_sum f = List.fold_left (fun acc r -> acc +. f r) 0. chain_runs in
  let chain_oracle_s = chain_sum (fun (_, _, o, _) -> o)
  and chain_eval_s = chain_sum (fun (_, _, _, c) -> c) in
  Format.printf "  chain (%d nodes): semantics %.3f s, eval cold %.3f s@."
    chain_n chain_oracle_s chain_eval_s;
  Format.printf "  chain positions agree: %b@." chain_agree;

  let speedup_cold = oracle_s /. cold_s in
  let speedup_warm = oracle_s /. warm_s in
  Format.printf "  speedup: %.1fx cold, %.1fx warm@." speedup_cold
    speedup_warm;
  let fast_enough = (not quick) || speedup_warm >= 10. in
  if not fast_enough then
    Format.printf "  FAIL: warm speedup %.1fx < 10x@." speedup_warm;

  let ok =
    Report.write ~out ~bench:"eval"
      ~mode:(if quick then "quick" else "full")
      ~gates:
        [ ("positions_agree", agree);
          ("xml_positions_agree", xml_agree);
          ("chain_positions_agree", chain_agree);
          ("warm_speedup", fast_enough)
        ]
      [ ("doc_nodes", Json.Num (float_of_int n));
        ("queries", Json.Num (float_of_int nq));
        ("xml_doc_nodes", Json.Num (float_of_int xdoc.Eval_doc.n));
        ( "semantics",
          Json.Obj
            [ ("s", Json.Num oracle_s);
              ("queries_per_s", Json.Num (float_of_int nq /. oracle_s))
            ] );
        ( "eval_cold",
          Json.Obj
            [ ("s", Json.Num cold_s);
              ("queries_per_s", Json.Num (float_of_int nq /. cold_s));
              ("node_evals", Json.Num (float_of_int work))
            ] );
        ( "eval_warm",
          Json.Obj
            [ ("s", Json.Num warm_s);
              ("queries_per_s", Json.Num (float_of_int nq /. warm_s))
            ] );
        ( "chain",
          Json.Obj
            [ ("nodes", Json.Num (float_of_int chain_n));
              ("semantics_s", Json.Num chain_oracle_s);
              ("eval_cold_s", Json.Num chain_eval_s);
              ( "per_query",
                Json.Arr
                  (List.map
                     (fun (text, _, o_s, c_s) ->
                       Json.Obj
                         [ ("query", Json.Str text);
                           ("semantics_s", Json.Num o_s);
                           ("eval_cold_s", Json.Num c_s)
                         ])
                     chain_runs) )
            ] );
        ("speedup_cold", Json.Num speedup_cold);
        ("speedup_warm", Json.Num speedup_warm);
        ("positions_agree", Json.Bool agree);
        ("xml_positions_agree", Json.Bool xml_agree);
        ("chain_positions_agree", Json.Bool chain_agree)
      ]
  in
  if ok then 0 else 1
