(* The CI smoke target: the gates that are wall-clock ratios, or too
   slow for dune runtest. Every other correctness gate of the served
   system is a dune runtest case. Exits 1 when any gate fails.

   - certify: every verdict on the certify corpus yields a certificate
     that survives its JSON encoding and passes the independent
     checker ([Cert.check]);
   - eval: on a ~1 300-node document the array evaluator agrees with
     the reference semantics position for position, and its warm
     (memoised) replay is >= 10x faster than the oracle;
   - store: the cold corpus and a solve-heavy set solved into a store,
     exported, and re-run by a fresh service from the snapshot:
     identical verdicts, nothing solved, both tiers hit, and the warm
     run >= 100x faster than cold;
   - load: the quick open-loop sweep through the sharded router, with
     no wrong verdict, every request answered, and a killed worker
     isolated and respawned.

   Run with: dune exec bench/main.exe -- smoke *)

module Service = Xpds.Service
module Sat = Xpds.Sat
module Emptiness = Xpds.Emptiness
module Cert = Xpds.Cert
module Store = Xpds.Store

let time = Table.time

let verdict_of (r : Service.response) =
  Service.verdict_name r.Service.report.Sat.verdict

(* [`Sat] must come back "sat"; [`Unsat] "unsat" or "unsat_bounded". *)
let expected expect verdict =
  match (expect, verdict) with
  | `Sat, "sat" | `Unsat, ("unsat" | "unsat_bounded") -> true
  | _ -> false

(* --- certify --- *)

(* In certificate mode the fixpoint runs to genuine saturation (no
   height cap) and the naive checker re-walks every child combination
   over the basis, Ω(n^width) in the basis size n, so the UNSAT cases
   keep their bases small: child_chain unsat 1 (60 states) and
   data_chain unsat 2 (48 states). SAT certificates replay a witness,
   so they scale easily. Width 2 suffices: every family here branches
   at most twice. *)
let certify () =
  let cases =
    [ ("child_chain_sat_3", Families.child_chain ~sat:true 3, `Sat);
      ("child_chain_sat_6", Families.child_chain ~sat:true 6, `Sat);
      ("child_chain_unsat_1", Families.child_chain ~sat:false 1, `Unsat);
      ("data_chain_sat_2", Families.data_chain ~sat:true 2, `Sat);
      ("data_chain_sat_3", Families.data_chain ~sat:true 3, `Sat);
      ("data_chain_sat_4", Families.data_chain ~sat:true 4, `Sat);
      ("data_chain_unsat_2", Families.data_chain ~sat:false 2, `Unsat);
      ("desc_data_sat_1", Families.desc_data ~sat:true 1, `Sat);
      ("desc_data_sat_2", Families.desc_data ~sat:true 2, `Sat);
      ("root_data_2", Families.root_data 2, `Sat);
      ("reg_alt_sat", Families.reg_alternation ~sat:true (), `Sat);
      ("mixed_axes_sat_2", Families.mixed_axes ~sat:true 2, `Sat);
      ("mixed_axes_sat_3", Families.mixed_axes ~sat:true 3, `Sat)
    ]
  in
  let svc =
    Service.create
      Service.Config.(
        default |> with_certificate true |> with_width 2
        |> with_max_transitions 2_000_000)
  in
  let checked (name, phi, expect) =
    let resp = Corpus.solve svc (Corpus.sat_request name phi) in
    let verdict = verdict_of resp in
    (* Certificates are checked from their encoding, as from a file. *)
    let status, check_s =
      time (fun () ->
          Result.bind (Cert.of_report resp.Service.report) (fun cert ->
              Result.bind (Cert.of_string (Cert.to_string cert)) (fun c ->
                  Cert.check c)))
    in
    let ok = expected expect verdict && Result.is_ok status in
    Format.printf "  certify %-20s %-14s %8.1f ms solve %8.1f ms check  %s@."
      name verdict resp.Service.ms (check_s *. 1000.)
      (match status with
      | Ok v -> Format.asprintf "%a" Cert.pp_verdict v
      | Error e -> "FAIL: " ^ e);
    ok
  in
  [ ("certificates_check", List.for_all Fun.id (List.map checked cases)) ]

(* --- eval --- *)

(* A deterministic document: label and branching drawn from the node's
   preorder id, data from a small residue class so equalities are
   plentiful. *)
let eval_labels = [| "a"; "b"; "c"; "d"; "lib" |]

let eval_tree ~target =
  let next = ref 0 in
  let rec go depth =
    let id = !next in
    incr next;
    let n_children =
      if depth >= 14 || !next >= target then 0 else 1 + (id * 13 mod 4)
    in
    let children = ref [] in
    for _ = 1 to n_children do
      if !next < target then children := go (depth + 1) :: !children
    done;
    Xpds.Data_tree.node
      eval_labels.(id mod Array.length eval_labels)
      (id * 7 mod 23) (List.rev !children)
  in
  go 0

(* Every connective and axis of the downward logic, plus seeded random
   regXPath formulas. *)
let eval_queries () =
  List.map Xpds.Parser.node_of_string_exn
    [ "true"; "a"; "a | b"; "<down[c]>"; "<down[b & <down[c]>]>";
      "<desc[d]>"; "<desc[a & <down[b]>]>"; "~<desc[c]>";
      "<desc[b]> & <desc[c]>"; "eps = down[a]"; "eps != down";
      "down[a] != down[b]"; "desc[a] = desc[b]"; "<down*[c]>";
      "<(down/down)*[a]>"; "<(down/down)*[a & eps = down]>";
      "<desc[eps != down[b]]>"; "<down[<down[c & eps = down]>]>"
    ]
  @ List.init 8 (fun i ->
        Gen_formula.gen ~state:(Random.State.make [| 0xE7A1; i |]) ())

(* The oracle, then a cold evaluator, then its warm replay in the served
   shape: the memoised node set, its cardinality and the first 100
   positions. *)
let eval () =
  let tree = eval_tree ~target:1_300 in
  let doc = Xpds.Eval_doc.of_tree tree in
  let qs = eval_queries () in
  let env = Xpds.Semantics.env_of_tree tree in
  let oracle, oracle_s =
    time (fun () -> List.map (Xpds.Semantics.sat_nodes env) qs)
  in
  let ev = Xpds.Eval.create doc in
  let cold = List.map (Xpds.Eval.selected_positions ev) qs in
  let serve q =
    let set = Xpds.Eval.nodes ev q in
    let shown = ref [] and taken = ref 0 in
    (try
       Xpds.Bitv.iter
         (fun x ->
           if !taken >= 100 then raise Exit;
           shown := Xpds.Eval_doc.position doc x :: !shown;
           incr taken)
         set
     with Exit -> ());
    (Xpds.Bitv.cardinal set, !shown)
  in
  let warm, warm_s = time (fun () -> List.map serve qs) in
  let sorted = List.sort Xpds.Path.compare in
  let agree =
    List.for_all2 (fun o c -> sorted o = sorted c) oracle cold
    && List.for_all2 (fun c (n, _) -> List.length c = n) cold warm
  in
  Format.printf
    "  eval    %d nodes, %d queries: semantics %.3f s, warm eval %.4f s \
     (%.0fx)@."
    doc.Xpds.Eval_doc.n (List.length qs) oracle_s warm_s
    (oracle_s /. warm_s);
  [ ("positions_agree", agree); ("warm_speedup_10x", oracle_s >= 10. *. warm_s) ]

(* --- store --- *)

(* Formulas whose solve stays costly (0.04-0.3 s each, 2-vCPU VM): the
   general engine's transition or state budget (data_chain sat 7 and 8,
   desc_data sat 4; hard-solve's budget-bound shapes, cached and stored
   like any deterministic verdict) and a long exact union closure
   (desc_data unsat 4). The cold corpus alone solves in about 0.01 s
   since the witness lift, too little against its 103 store probes to
   measure the store by the speedup; these keep the cold side a solve. *)
let solve_heavy () =
  [ Families.data_chain ~sat:true 7;
    Families.data_chain ~sat:true 8;
    Families.desc_data ~sat:true 4;
    Families.desc_data ~sat:false 4
  ]

let store () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xpds_smoke_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path name =
    let p = Filename.concat dir name in
    (try Sys.remove p with Sys_error _ -> ());
    p
  in
  let open_store p =
    match
      Store.open_rw ~path:p ~protocol_version:Service.protocol_version
        ~config_fingerprint:Service.Config.(fingerprint default_solver) ()
    with
    | Ok (store, _) -> store
    | Error e -> failwith ("store open: " ^ e)
  in
  let corpus = Corpus.formulas () and heavy = solve_heavy () in
  let reqs = Corpus.requests (corpus @ heavy) in
  (* Cold: solve into a fresh store, then export a compacted snapshot. *)
  let cold_path = path "cold.xpds" and snapshot = path "cold.snap" in
  let store = open_store cold_path in
  let solve_all svc = List.map (Corpus.solve svc) reqs in
  let cold, cold_s =
    time (fun () -> solve_all (Service.create ~store Service.Config.default))
  in
  Store.close store;
  let export =
    match Store.export ~src:cold_path ~dst:snapshot with
    | Ok info -> info
    | Error e -> failwith ("export: " ^ e)
  in
  (* Warm: a fresh service on the snapshot, nothing in its LRU — the
     fresh-process shape. *)
  let store = open_store snapshot in
  let svc = Service.create ~store Service.Config.default in
  let warm, warm_s = time (fun () -> solve_all svc) in
  Store.close store;
  List.iter Sys.remove [ cold_path; snapshot ];
  Unix.rmdir dir;
  let metric = Corpus.metric (Service.metrics svc) in
  let disk_hits = metric [ "store"; "disk_hits" ] in
  Format.printf
    "  store   %d + %d solve-heavy formulas: cold %.2f s, warm %.4f s \
     (%.0fx), %.0f disk hits@."
    (List.length corpus) (List.length heavy) cold_s warm_s (cold_s /. warm_s)
    disk_hits;
  [ ( "warm_verdicts_agree",
      List.map verdict_of cold = List.map verdict_of warm );
    ("warm_no_solves", metric [ "cache_misses" ] = 0.);
    ("warm_disk_tier_hit", disk_hits > 0.);
    ("warm_duplicate_on_memory_tier", metric [ "cache_hits" ] > disk_hits);
    ("export_nothing_skipped", export.Store.skipped = 0);
    ("warm_speedup_100x", cold_s >= 100. *. warm_s)
  ]

let run () =
  let gates =
    List.concat_map
      (fun leg -> leg ())
      [ certify; eval; store;
        (fun () ->
          let gates, _, _ = Load_bench.sweep ~quick:true () in
          gates)
      ]
  in
  List.iter
    (fun (name, ok) -> Format.printf "  %-32s %s@." name (if ok then "ok" else "FAIL"))
    gates;
  if List.for_all snd gates then 0 else 1
