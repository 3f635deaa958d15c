(* xpds — command-line front end.

   Subcommands:
     sat        decide satisfiability of a formula
     classify   fragment and resource bounds of a formula (Fig. 4)
     check      evaluate a formula on a given data tree
     explain    show where every subformula holds on a data tree
     translate  show the Theorem-3 BIP automaton of a formula
     contains   decide containment of two node expressions
     equiv      decide equivalence of two node expressions
     tiling     solve + encode the built-in tiling examples
     qbf        decide a QBF and its Prop-8 XPath encoding
     gen        generate random formulas of a chosen fragment
     repl       interactive session against a data tree
     xml        encode an XML file as a data tree (Appendix A)
     eval       evaluate queries over an XML/data-tree document
     serve      NDJSON request/response solver loop on stdin/stdout
     batch      solve a file of formulas, one after another
     certify    re-check a stored certificate with the naive verifier
     cache      export/import/inspect persistent verdict stores

   sat/serve/batch also take --certify: solve in certificate mode,
   emit a checkable certificate per verdict and verify it on the spot
   with the independent checker (lib/cert). serve/batch also take
   --store FILE: a persistent verdict store (lib/store) acting as a
   certificate-verified disk tier under the in-memory LRU, so a fresh
   process warm-starts from earlier runs. *)

open Cmdliner

let formula_arg =
  let doc = "The formula, in the concrete syntax (see the README)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let parse_node s =
  match Xpds.Parser.formula_of_string s with
  | Ok f -> Ok (Xpds.Ast.as_node f)
  | Error e -> Error e

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline e;
    exit 2

let width_arg =
  let doc = "Branching width bound of the emptiness search." in
  Arg.(value & opt int 3 & info [ "width" ] ~doc)

let verbose_arg =
  let doc = "Print the full report rather than just the verdict." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* --- the one-shot verbs: sat, contains, equiv, eval ---

   Each sends its request (with an empty id, unless eval's query text)
   through [Service.handle] on a fresh service, the path every served
   line takes: --json prints the wire line, and the text output renders
   the same response. The repl's sat command and qbf's encoding check
   go the same way, so they report what [xpds sat] reports. *)

let request ?(id = "") ?timeout_ms body = { Xpds.Request.id; timeout_ms; body }

let solver_service ~width ~certify =
  Xpds.Service.create
    Xpds.Service.Config.(
      default |> with_width width |> with_certificate certify)

let sat_response svc phi =
  match Xpds.Service.handle svc (request (Sat phi)) with
  | Xpds.Service.Sat_answer r -> r
  | _ -> invalid_arg "a sat request answers a sat answer"

(* --- sat --- *)

let json_arg =
  let doc = "Emit JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let certify_arg =
  let doc =
    "Solve in certificate mode and check the emitted certificate with \
     the independent verifier before reporting."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

(* Build and check the certificate of a report solved with
   ~certificate:true. Returns the JSON summary fields, the certificate
   itself (for --cert-out / --cert-dir), and whether the pipeline is
   healthy: an UNKNOWN verdict has no certificate and that is fine; an
   emission error or a rejected check is a failure. The check is
   counted in [svc]'s metrics and timed on [trace]. *)
let certify_report ~svc ~trace (report : Xpds.Sat.report) =
  match report.Xpds.Sat.verdict with
  | Xpds.Sat.Unknown _ ->
    ([ ("certificate", Xpds.Json.Str "unavailable") ], None, true)
  | _ -> (
    match Xpds.Cert.of_report report with
    | Error e ->
      ( [ ("certificate", Xpds.Json.Str "emission failed");
          ("certificate_error", Xpds.Json.Str e)
        ],
        None,
        false )
    | Ok cert ->
      let t0 = Xpds.Trace.now_ms () in
      let result = Xpds.Cert.check cert in
      let ms = Xpds.Trace.now_ms () -. t0 in
      Xpds.Service.record_cert svc ~ok:(Result.is_ok result) ~ms;
      Xpds.Trace.add_ms trace "certificate" ms;
      let ms_field =
        ("certificate_ms", Xpds.Json.Num (Float.round (ms *. 1000.) /. 1000.))
      in
      let fields, ok =
        match result with
        | Ok v ->
          ( [ ( "certificate",
                Xpds.Json.Str (Format.asprintf "%a" Xpds.Cert.pp_verdict v) );
              ms_field
            ],
            true )
        | Error e ->
          ( [ ("certificate", Xpds.Json.Str "rejected");
              ("certificate_error", Xpds.Json.Str e);
              ms_field
            ],
            false )
      in
      (fields, Some cert, ok))

let pp_cert_fields fields =
  List.iter
    (fun (k, v) ->
      Format.printf "%s: %s@." k
        (match v with
        | Xpds.Json.Str s -> s
        | other -> Xpds.Json.to_string other))
    fields

let sat_cmd =
  let minimize_arg =
    Arg.(value & flag & info [ "minimize" ] ~doc:"Shrink the witness.")
  in
  let cert_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert-out" ] ~docv:"FILE"
          ~doc:
            "Write the certificate (JSON) to $(docv); implies \
             --certify.")
  in
  let run formula width verbose json minimize certify cert_out =
    let certify = certify || cert_out <> None in
    let eta = or_die (parse_node formula) in
    let svc = solver_service ~width ~certify in
    let resp = sat_response svc eta in
    let resp =
      if minimize then
        { resp with Xpds.Service.report = Xpds.Sat.minimize eta resp.report }
      else resp
    in
    let report = resp.Xpds.Service.report in
    let cert_fields, cert, cert_ok =
      if certify then certify_report ~svc ~trace:resp.trace report
      else ([], None, true)
    in
    (match (cert_out, cert) with
    | Some file, Some cert -> Xpds.Cert.to_file file cert
    | Some file, None ->
      Printf.eprintf "%s not written: no certificate emitted\n%!" file
    | None, _ -> ());
    if json then
      print_endline
        (Xpds.Service.answer_to_json
           ~extra_of:(fun _ -> cert_fields)
           (Xpds.Service.Sat_answer resp))
    else begin
      if verbose then Format.printf "%a@." Xpds.Sat.pp_report report
      else Format.printf "%a@." Xpds.Sat.pp_verdict report.Xpds.Sat.verdict;
      pp_cert_fields cert_fields
    end;
    if not cert_ok then exit 4;
    match report.Xpds.Sat.verdict with
    | Xpds.Sat.Sat _ -> exit 0
    | Xpds.Sat.Unsat | Xpds.Sat.Unsat_bounded _ -> exit 1
    | Xpds.Sat.Unknown _ -> exit 3
  in
  Cmd.v
    (Cmd.info "sat"
       ~doc:
         "Decide satisfiability (Definition 1). Exit: 0 sat, 1 unsat, \
          3 unknown, 4 certificate failure (with --certify).")
    Term.(
      const run $ formula_arg $ width_arg $ verbose_arg $ json_arg
      $ minimize_arg $ certify_arg $ cert_out_arg)

(* --- classify --- *)

let classify_cmd =
  let run formula =
    let eta = or_die (parse_node formula) in
    let fragment = Xpds.Fragment.classify eta in
    Format.printf "fragment:   %s@." (Xpds.Fragment.name fragment);
    Format.printf "complexity: %s@."
      (match Xpds.Fragment.complexity fragment with
      | Xpds.Fragment.PSpace -> "PSpace-complete"
      | Xpds.Fragment.ExpTime -> "ExpTime-complete");
    Format.printf "size:       %d@." (Xpds.Measure.size_node eta);
    Format.printf "data tests: %d@." (Xpds.Measure.data_tests eta);
    (match Xpds.Fragment.poly_depth_bound eta with
    | Some b -> Format.printf "poly-depth model bound: %d@." b
    | None -> Format.printf "poly-depth model bound: none (ExpTime row)@.")
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Locate a formula in the paper's Figure 4 and show bounds.")
    Term.(const run $ formula_arg)

(* --- check --- *)

let check_cmd =
  let tree_arg =
    let doc = "The data tree, e.g. 'a:1(b:2,b:3)'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TREE" ~doc)
  in
  let run formula tree =
    let eta = or_die (parse_node formula) in
    let t = or_die (Xpds.Data_tree.of_string tree) in
    let env = Xpds.Semantics.env_of_tree t in
    let sat = Xpds.Semantics.sat_nodes env eta in
    Format.printf "holds at root: %b@."
      (Xpds.Semantics.holds_at_root env eta);
    Format.printf "[[formula]] = {%a}@."
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Xpds.Path.pp)
      sat;
    exit (if sat = [] then 1 else 0)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Evaluate a formula on a concrete data tree.")
    Term.(const run $ formula_arg $ tree_arg)

(* --- explain --- *)

let explain_cmd =
  let tree_arg =
    let doc = "The data tree, e.g. 'a:1(b:2,b:3)'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TREE" ~doc)
  in
  let run formula tree =
    let eta = or_die (parse_node formula) in
    let t = or_die (Xpds.Data_tree.of_string tree) in
    Format.printf "%a@." (fun ppf () -> Xpds.Explain.pp ppf t eta) ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show where every subformula holds on a data tree.")
    Term.(const run $ formula_arg $ tree_arg)

(* --- translate --- *)

let translate_cmd =
  let dot_arg =
    let doc = "Emit Graphviz dot instead of text." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run formula dot =
    let eta = or_die (parse_node formula) in
    let m = Xpds.Translate.of_node eta in
    if dot then print_string (Xpds.Dot.bip m)
    else begin
      Format.printf "%a@." Xpds.Bip.pp m;
      Format.printf "bounded interleaving: %b@."
        (Xpds.Bip.has_bounded_interleaving m)
    end
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Show the BIP automaton of a formula (Theorem 3).")
    Term.(const run $ formula_arg $ dot_arg)

(* --- contains / equiv --- *)

let psi_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"PSI" ~doc:"The containing formula.")

let local_timeout_arg =
  let doc = "Deadline in milliseconds for the \xcf\x86\xe2\x88\xa7\xc2\xac\xcf\x88 search(es)." in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~doc)

let pp_answer direction = function
  | Xpds.Containment.Holds ->
    Printf.printf "%s holds (certified)\n" direction
  | Xpds.Containment.Holds_bounded why ->
    Printf.printf "%s holds (%s)\n" direction why
  | Xpds.Containment.Fails w ->
    Printf.printf "%s fails; counterexample: %s\n" direction
      (Xpds.Data_tree.to_compact_string w)
  | Xpds.Containment.Unknown why ->
    Printf.printf "%s unknown (%s)\n" direction why

(* Answer a contains or equiv request, printing its wire line under
   --json. *)
let containment phi_s psi_s ~width ~json ~timeout_ms body =
  let phi = or_die (parse_node phi_s) and psi = or_die (parse_node psi_s) in
  let answer =
    Xpds.Service.handle
      (solver_service ~width ~certify:false)
      (request ?timeout_ms (body phi psi))
  in
  if json then print_endline (Xpds.Service.answer_to_json answer);
  answer

(* contains and equiv exit 0 when the answer holds, 1 when it fails and
   3 when it is unknown. *)
let exit_holds = function
  | Some true -> exit 0
  | Some false -> exit 1
  | None -> exit 3

let contains_cmd =
  let run phi_s psi_s width json timeout_ms =
    match
      containment phi_s psi_s ~width ~json ~timeout_ms (fun phi psi ->
          Xpds.Request.Contains { phi; psi })
    with
    | Xpds.Service.Contains_answer r ->
      if not json then pp_answer "containment" (Xpds.Service.contains_answer r);
      exit_holds (Xpds.Service.holds r)
    | _ -> invalid_arg "a contains request answers a contains answer"
  in
  Cmd.v
    (Cmd.info "contains"
       ~doc:
         "Decide [[PHI]] <= [[PSI]] on all data trees (Section 4.1); a \
          failing containment prints its counterexample tree in the \
          parseable label:datum syntax (feed it back to $(b,xpds check)). \
          Exit: 0 holds, 1 fails, 3 unknown.")
    Term.(
      const run $ formula_arg $ psi_arg $ width_arg $ json_arg
      $ local_timeout_arg)

let equiv_cmd =
  let run phi_s psi_s width json timeout_ms =
    match
      containment phi_s psi_s ~width ~json ~timeout_ms (fun phi psi ->
          Xpds.Request.Equiv { phi; psi })
    with
    | Xpds.Service.Equiv_answer { forward; backward; _ } ->
      let equivalent = Xpds.Service.equivalent ~forward ~backward in
      if not json then begin
        pp_answer "phi <= psi" (Xpds.Service.contains_answer forward);
        pp_answer "psi <= phi" (Xpds.Service.contains_answer backward);
        print_endline
          (match equivalent with
          | Some true -> "equivalent"
          | Some false -> "not equivalent"
          | None -> "equivalence unknown")
      end;
      exit_holds equivalent
    | _ -> invalid_arg "an equiv request answers an equiv answer"
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Decide [[PHI]] = [[PSI]] on all data trees (mutual inclusion, \
          Section 4.1). Exit: 0 equivalent, 1 not equivalent, 3 unknown.")
    Term.(
      const run $ formula_arg $ psi_arg $ width_arg $ json_arg
      $ local_timeout_arg)

(* --- tiling --- *)

let tiling_cmd =
  let run () =
    List.iter
      (fun (name, inst) ->
        let wins = Xpds.Tiling_game.eloise_wins inst in
        let phi = Xpds.Tiling.encode inst in
        Format.printf "%s: Eloise wins = %b; encoding size = %d (%s)@."
          name wins
          (Xpds.Measure.size_node phi)
          (Xpds.Fragment.name (Xpds.Fragment.classify phi)))
      [ ("example_win", Xpds.Tiling_game.example_win ());
        ("example_lose", Xpds.Tiling_game.example_lose ())
      ]
  in
  Cmd.v
    (Cmd.info "tiling"
       ~doc:"Solve the built-in corridor-tiling examples and show their \
             Theorem-5 encodings.")
    Term.(const run $ const ())

(* --- qbf --- *)

let qbf_cmd =
  let qbf_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QBF"
          ~doc:"Instance as 'EA: 1 2 0 -1 -2 0' (prefix, then DIMACS \
                clauses).")
  in
  let run s width =
    let q = or_die (Xpds.Qbf.of_string s) in
    let truth = Xpds.Qbf.valid q in
    Format.printf "QBF %a@.valid: %b@." Xpds.Qbf.pp q truth;
    let phi = Xpds.Qbf_encoding.encode q in
    Format.printf "encoding: size %d in %s@."
      (Xpds.Measure.size_node phi)
      (Xpds.Fragment.name (Xpds.Fragment.classify phi));
    let report =
      (sat_response (solver_service ~width ~certify:false) phi)
        .Xpds.Service.report
    in
    Format.printf "encoding satisfiable: %a@." Xpds.Sat.pp_verdict
      report.Xpds.Sat.verdict
  in
  Cmd.v
    (Cmd.info "qbf"
       ~doc:"Decide a QBF directly and through its Prop-8 XPath \
             encoding.")
    Term.(const run $ qbf_arg $ width_arg)

(* --- gen --- *)

let gen_cmd =
  let count_arg =
    Arg.(value & opt int 5 & info [ "n" ] ~doc:"How many formulas.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed.")
  in
  let fragment_arg =
    let doc =
      "Fragment: child, desc, child-desc, child-data, desc-data, \
       desc-data-epsfree, full, reg."
    in
    Arg.(value & opt string "full" & info [ "fragment" ] ~doc)
  in
  let run count seed fragment =
    let config =
      match fragment with
      | "child" -> Xpds.Generator.fragment_config Xpds.Fragment.XPath_child
      | "desc" -> Xpds.Generator.fragment_config Xpds.Fragment.XPath_desc
      | "child-desc" ->
        Xpds.Generator.fragment_config Xpds.Fragment.XPath_child_desc
      | "child-data" ->
        Xpds.Generator.fragment_config Xpds.Fragment.XPath_child_data
      | "desc-data" ->
        Xpds.Generator.fragment_config Xpds.Fragment.XPath_desc_data
      | "desc-data-epsfree" ->
        Xpds.Generator.fragment_config Xpds.Fragment.XPath_desc_data_epsfree
      | "reg" | "full" ->
        Xpds.Generator.fragment_config Xpds.Fragment.RegXPath_data
      | other ->
        prerr_endline ("unknown fragment " ^ other);
        exit 2
    in
    let st = Random.State.make [| seed |] in
    for _ = 1 to count do
      print_endline
        (Xpds.Pp.node_to_string (Xpds.Generator.node ~config st))
    done
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate random formulas of a chosen Fig. 4 fragment.")
    Term.(const run $ count_arg $ seed_arg $ fragment_arg)

(* --- repl --- *)

let repl_cmd =
  let run () =
    let tree = ref (Xpds.Data_tree.example_fig1 ()) in
    let svc = Xpds.Service.create Xpds.Service.Config.default in
    print_endline
      "xpds repl — commands: tree <t>, show, check <formula>, sat \
       <formula>, classify <formula>, explain <formula>, quit";
    let rec loop () =
      print_string "> ";
      match read_line () with
      | exception End_of_file -> ()
      | line ->
        let line = String.trim line in
        let cmd, arg =
          match String.index_opt line ' ' with
          | Some i ->
            ( String.sub line 0 i,
              String.trim (String.sub line i (String.length line - i)) )
          | None -> (line, "")
        in
        (match cmd with
        | "" -> ()
        | "quit" | "exit" -> raise Exit
        | "tree" -> (
          match Xpds.Data_tree.of_string arg with
          | Ok t ->
            tree := t;
            Format.printf "tree set: %a@." Xpds.Data_tree.pp t
          | Error e -> print_endline e)
        | "show" -> Format.printf "%a@." Xpds.Data_tree.pp !tree
        | "check" -> (
          match parse_node arg with
          | Ok phi ->
            let env = Xpds.Semantics.env_of_tree !tree in
            Format.printf "[[formula]] = {%a}@."
              (Format.pp_print_list
                 ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                 Xpds.Path.pp)
              (Xpds.Semantics.sat_nodes env phi)
          | Error e -> print_endline e)
        | "sat" -> (
          match parse_node arg with
          | Ok phi ->
            Format.printf "%a@." Xpds.Sat.pp_report
              (sat_response svc phi).Xpds.Service.report
          | Error e -> print_endline e)
        | "classify" -> (
          match parse_node arg with
          | Ok phi ->
            Format.printf "%s@."
              (Xpds.Fragment.name (Xpds.Fragment.classify phi))
          | Error e -> print_endline e)
        | "explain" -> (
          match parse_node arg with
          | Ok phi ->
            Format.printf "%a@."
              (fun ppf () -> Xpds.Explain.pp ppf !tree phi)
              ()
          | Error e -> print_endline e)
        | other -> print_endline ("unknown command: " ^ other));
        loop ()
    in
    (try loop () with Exit -> ());
    print_endline "bye"
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive session against a data tree.")
    Term.(const run $ const ())

(* --- xml --- *)

let xml_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML file.")
  in
  let run file json dot =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    let doc = or_die (Xpds.Xml_doc.parse src) in
    let tree = Xpds.Xml_doc.to_data_tree doc in
    if json then print_endline (Xpds.Serialize.tree_to_json tree)
    else if dot then print_string (Xpds.Dot.data_tree tree)
    else Format.printf "%a@." Xpds.Data_tree.pp tree
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot.")
  in
  Cmd.v
    (Cmd.info "xml"
       ~doc:"Encode an XML document as a data tree (Appendix A).")
    Term.(const run $ file_arg $ json_arg $ dot_arg)

(* --- eval (bulk evaluation over an array-encoded document) --- *)

let read_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

(* A document file is XML when named *.xml or when it leads with '<';
   otherwise it is the data-tree syntax of [Data_tree.of_string]. *)
let load_doc file =
  let src = read_file file in
  let trimmed = String.trim src in
  let looks_xml =
    Filename.check_suffix file ".xml"
    || (String.length trimmed > 0 && trimmed.[0] = '<')
  in
  if looks_xml then
    match Xpds.Xml_doc.parse src with
    | Ok xml -> Xpds.Eval_doc.of_xml xml
    | Error e ->
      prerr_endline (file ^ ": " ^ e);
      exit 2
  else
    match Xpds.Data_tree.of_string trimmed with
    | Ok tree -> Xpds.Eval_doc.of_tree tree
    | Error e ->
      prerr_endline (file ^ ": " ^ e);
      exit 2

let eval_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "The document: XML (by .xml suffix or a leading '<') or \
             the compact data-tree syntax label:datum(child,...).")
  in
  let queries_arg =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"QUERY"
          ~doc:"One or more node expressions (concrete syntax).")
  in
  let limit_arg =
    let doc = "Positions printed per query (the count is always exact)." in
    Arg.(value & opt int 10 & info [ "limit" ] ~doc)
  in
  let run file queries json limit =
    let doc = load_doc file in
    let queries = List.map (fun qs -> (qs, or_die (parse_node qs))) queries in
    (* One service holds the document, so the queries share its
       evaluator memo: common subformulas are computed once. *)
    let svc =
      Xpds.Service.create
        Xpds.Service.Config.(default |> with_max_doc_nodes max_int)
    in
    or_die (Xpds.Service.register_doc svc ~name:file doc);
    if not json then Format.printf "%s: %d nodes@." file doc.Xpds.Eval_doc.n;
    List.iter
      (fun (qs, query) ->
        let answer =
          Xpds.Service.handle svc
            (request ~id:qs
               (Eval { query; source = Doc_named file; limit = Some limit }))
        in
        if json then print_endline (Xpds.Service.answer_to_json answer)
        else
          match answer with
          | Xpds.Service.Eval_answer { result = Ok r; _ } ->
            Format.printf "%s: %d node%s%s@." qs r.count
              (if r.count = 1 then "" else "s")
              (if r.root then " (holds at the root)" else "");
            let shown =
              match Xpds.Json.parse r.positions with
              | Ok (Xpds.Json.Arr ps) -> List.filter_map Xpds.Json.to_str ps
              | _ -> []
            in
            List.iter (fun p -> Format.printf "  %s@." p) shown;
            if r.truncated then
              Format.printf "  ... (+%d more)@." (r.count - List.length shown)
          | Xpds.Service.Eval_answer { result = Error e; _ } ->
            Format.printf "%s: error: %s@." qs e
          | _ -> invalid_arg "an eval request answers an eval answer")
      queries
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate node expressions over an XML or data-tree document \
          with the bulk array evaluator: for each QUERY, the number of \
          satisfying nodes, whether the root satisfies it, and the \
          first --limit positions. Queries share one evaluator, so \
          common subformulas are computed once.")
    Term.(const run $ file_arg $ queries_arg $ json_arg $ limit_arg)

(* --- serve / batch (the solver service) --- *)

let timeout_arg =
  let doc =
    "Default per-request deadline in milliseconds (a timed-out request \
     answers verdict \"unknown\", never a wrong certified verdict); 0 \
     means no deadline. Individual serve requests may override it with \
     their own \"timeout_ms\" field."
  in
  Arg.(value & opt float 0. & info [ "timeout-ms" ] ~doc)

let cache_arg =
  let doc = "Capacity of the LRU result cache (entries)." in
  Arg.(value & opt int 4096 & info [ "cache" ] ~doc)

let stats_arg =
  let doc = "Print service metrics (JSON, on stderr) when done." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let store_arg =
  let doc =
    "Persistent verdict store (created if absent): a second cache tier \
     on disk. Memory misses probe it (verified on load) before \
     solving, and every cacheable verdict is appended to it, so a \
     fresh process warm-starts from previous sessions. The file is \
     keyed on the protocol version and solver configuration; opening \
     it under a different configuration restarts it empty."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

let store_verify_arg =
  let doc =
    "How hard to verify a store record before serving it: \
     $(b,fingerprint) (default) recomputes the record's certificate \
     fingerprint against the request's canonical formula; $(b,full) \
     additionally replays SAT witnesses through the reference \
     semantics. Records failing either check self-evict and the \
     request is solved fresh."
  in
  Arg.(
    value
    & opt (enum [ ("fingerprint", Xpds.Store.Fingerprint);
                  ("full", Xpds.Store.Full) ])
        Xpds.Store.Fingerprint
    & info [ "store-verify" ] ~docv:"MODE" ~doc)

let open_store ~verify ~solver path =
  match
    Xpds.Store.open_rw ~verify ~path
      ~protocol_version:Xpds.Service.protocol_version
      ~config_fingerprint:(Xpds.Service.Config.fingerprint solver) ()
  with
  | Error e ->
    prerr_endline (path ^ ": " ^ e);
    exit 2
  | Ok (store, info) ->
    if info.Xpds.Store.invalidated then
      Printf.eprintf
        "%s: existing store was written under a different \
         protocol/configuration (or is damaged); restarted empty\n%!"
        path
    else if info.Xpds.Store.recovered_bytes > 0 then
      Printf.eprintf "%s: dropped %d damaged trailing bytes\n%!" path
        info.Xpds.Store.recovered_bytes;
    store

let config_of ~certificate ~cache_capacity =
  Xpds.Service.Config.(
    default |> with_certificate certificate
    |> with_cache_capacity cache_capacity)

(* The one service constructor of serve (in-process, and each forked
   shard after the fork) and batch: opens the store — FILE.i for shard
   i — and registers the --doc documents. *)
let make_service ~config ?store_path ~store_verify ?(docs = []) ?shard () =
  let store =
    Option.map
      (fun path ->
        open_store ~verify:store_verify ~solver:config.Xpds.Service.Config.solver
          (match shard with Some i -> path ^ "." ^ string_of_int i | None -> path))
      store_path
  in
  let svc = Xpds.Service.create ?store config in
  List.iter
    (fun (name, doc) ->
      match Xpds.Service.register_doc svc ~name doc with
      | Ok () -> ()
      | Error e ->
        prerr_endline ("--doc " ^ name ^ ": " ^ e);
        exit 2)
    docs;
  (svc, store)

(* The --certify layer: trailing fields for each sat response, each
   certificate written to DIR/<id>.cert.json under --cert-dir. The
   second result reports whether every check so far passed. *)
let certifier ~certify ?cert_dir svc =
  let all_ok = ref true in
  (match cert_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  let extra_of (resp : Xpds.Service.response) =
    if not certify then []
    else begin
      let fields, cert, ok =
        certify_report ~svc ~trace:resp.Xpds.Service.trace resp.Xpds.Service.report
      in
      if not ok then all_ok := false;
      (match (cert_dir, cert) with
      | Some dir, Some cert ->
        Xpds.Cert.to_file
          (Filename.concat dir (resp.Xpds.Service.id ^ ".cert.json"))
          cert
      | _ -> ());
      fields
    end
  in
  (extra_of, fun () -> !all_ok)

let print_store_info store =
  let num i = Xpds.Json.Num (float_of_int i) in
  let c = Xpds.Store.counters store in
  prerr_endline
    (Xpds.Json.to_string
       (Xpds.Json.Obj
          [ ("store", Xpds.Json.Str (Xpds.Store.path store));
            ("records", num (Xpds.Store.length store));
            ("bytes", num (Xpds.Store.bytes_on_disk store));
            ("memory_hits", num c.Xpds.Store.memory_hits);
            ("disk_hits", num c.Xpds.Store.disk_hits);
            ("misses", num c.Xpds.Store.misses);
            ("self_evictions", num c.Xpds.Store.self_evictions);
            ("appends", num c.Xpds.Store.appends)
          ]))

let close_store ?(stats = false) store =
  Option.iter
    (fun store ->
      if stats then print_store_info store;
      Xpds.Store.close store)
    store

let default_timeout t = if t > 0. then Some t else None

let trace_arg =
  let doc =
    "Attach per-request phase timings (parse, canonicalize, cache \
     probe, translate/fixpoint/verify, certificate) to every response \
     as a \"trace\" object."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let print_metrics svc =
  prerr_endline (Xpds.Json.to_string (Xpds.Service.metrics svc))

let serve_cmd =
  let docs_arg =
    let doc =
      "Register a document for eval-kind requests, as NAME=FILE (XML \
       or data-tree syntax; repeatable). Requests address it as \
       {\"kind\":\"eval\", \"doc\":\"NAME\", ...}."
    in
    Arg.(value & opt_all string [] & info [ "doc" ] ~docv:"NAME=FILE" ~doc)
  in
  let shards_arg =
    let doc =
      "Serve through N forked worker processes instead of in-process: \
       each request line is routed whole to a worker by its \
       deterministic canonical cache key (kind-tagged and \
       doctype-salted, so per-shard caches never alias; an equiv by \
       its forward direction's contains key), and worker crashes are \
       isolated and respawned. 0 (the default) serves in-process. \
       With --store FILE, shard $(i,i) persists to FILE.$(i,i)."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let queue_depth_arg =
    let doc =
      "Per-shard admission queue bound (with --shards). A request \
       arriving when its target shard's queue is full — or whose \
       deadline provably cannot be met given the queue's depth and \
       observed service times — is shed immediately with a structured \
       {\"error\":\"overloaded\", \"retry_after_ms\":..} line instead \
       of queueing past its budget."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"DEPTH" ~doc)
  in
  let run timeout_ms cache stats certify trace docs store_path store_verify
      shards queue_depth =
    if certify && shards > 0 then begin
      prerr_endline "--certify is not supported with --shards";
      exit 2
    end;
    (* documents are loaded once; forked workers inherit them *)
    let docs =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | None ->
            prerr_endline ("--doc " ^ spec ^ ": expected NAME=FILE");
            exit 2
          | Some i ->
            ( String.sub spec 0 i,
              load_doc (String.sub spec (i + 1) (String.length spec - i - 1)) ))
        docs
    in
    let config = config_of ~certificate:certify ~cache_capacity:cache in
    let service = make_service ~config ?store_path ~store_verify ~docs in
    let emit line =
      print_endline line;
      flush stdout
    in
    let default_timeout_ms = default_timeout timeout_ms in
    let eng, store =
      if shards = 0 then begin
        (* the in-process engine: one service, answers inline *)
        let svc, store = service () in
        let extra_of, _ = certifier ~certify svc in
        (Xpds.Engine.in_process ?default_timeout_ms ~trace ~extra_of ~emit svc, store)
      end
      else
        (* [make_service] runs in the worker child, post-fork: each shard
           owns its store file *)
        ( Xpds.Shard.engine ~queue_depth ?default_timeout_ms ~trace
            ~make_service:(fun ~shard -> fst (service ~shard ()))
            ~shards ~emit config,
          None )
    in
    (* The router is asynchronous: worker responses turn ready while
       the loop is waiting for input, and a synchronous client reads
       each reply before sending its next line — so blocking in
       [read_line] alone would deadlock it. [Engine.wait] selects on
       stdin and the engine's own I/O together, pumping responses out
       as soon as workers produce them; the in-process engine answers
       inline and waits on stdin alone. Neither engine ever raises on a
       line: garbage answers a structured {"error": ...} line. *)
    let stdin_fd = Unix.stdin in
    let inbuf = Buffer.create 4096 in
    let chunk = Bytes.create 65536 in
    let submit line = if String.trim line <> "" then Xpds.Engine.submit eng line in
    let submit_buffered ~eof =
      let s = Buffer.contents inbuf in
      let rec go start =
        match String.index_from_opt s start '\n' with
        | Some i ->
          submit (String.sub s start (i - start));
          go (i + 1)
        | None ->
          Buffer.clear inbuf;
          if eof then
            (* a final line without its newline still gets a reply *)
            submit (String.sub s start (String.length s - start))
          else Buffer.add_substring inbuf s start (String.length s - start)
      in
      go 0
    in
    let eof = ref false in
    while not !eof do
      let ready = Xpds.Engine.wait eng ~read_fds:[ stdin_fd ] 1.0 in
      if ready <> [] then
        match Unix.read stdin_fd chunk 0 (Bytes.length chunk) with
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
        | 0 ->
          eof := true;
          submit_buffered ~eof:true
        | n ->
          Buffer.add_subbytes inbuf chunk 0 n;
          submit_buffered ~eof:false
    done;
    Xpds.Engine.drain eng;
    if stats then
      Option.iter
        (fun j -> prerr_endline (Xpds.Json.to_string j))
        (Xpds.Engine.metrics_json eng);
    Xpds.Engine.close eng;
    close_store ~stats store
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Solver service: read NDJSON requests {\"id\":.., \
          \"formula\":.., \"timeout_ms\":..} from stdin, answer \
          {\"id\":.., \"verdict\":.., \"cached\":.., \"ms\":..} per \
          line on stdout (a structured {\"error\":..} line for \
          malformed input — the loop never dies). Results are cached \
          by canonical formula; concurrent equal requests share one \
          solve. Requests with \"kind\":\"eval\" evaluate a query over \
          a document (registered with --doc, or sent inline as \
          \"xml\"/\"tree\") instead of deciding satisfiability. With \
          --certify each response carries a checked certificate \
          summary; with --trace, per-phase timings. With --store, a \
          persistent verdict store warm-starts the cache across \
          processes. Requests with \"kind\":\"contains\" or \
          \"equiv\" decide query containment/equivalence (a \"fails\" \
          answer carries a replayable counterexample tree); \
          \"kind\":\"sat_under_doctype\" decides satisfiability under \
          counting DTD rules.")
    Term.(
      const run $ timeout_arg $ cache_arg $ stats_arg $ certify_arg
      $ trace_arg $ docs_arg $ store_arg $ store_verify_arg $ shards_arg
      $ queue_depth_arg)

let batch_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "File with one formula per line (blank lines and lines \
             starting with # are skipped).")
  in
  let cert_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert-dir" ] ~docv:"DIR"
          ~doc:
            "Write each response's certificate to $(docv)/<id>.cert.json; \
             implies --certify.")
  in
  let run file timeout_ms cache stats certify cert_dir trace store_path
      store_verify =
    let certify = certify || cert_dir <> None in
    let ic = open_in file in
    let items = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         let text = String.trim line in
         if text <> "" && text.[0] <> '#' then
           items := (!lineno, text) :: !items
       done
     with End_of_file -> close_in ic);
    let items = List.rev !items in
    (* Two input formats: a formula per line, each a sat request with
       id L<line>, or — when the first payload line opens a JSON object
       — NDJSON request lines, so a batch file can mix every protocol
       kind (sat, eval, contains, equiv, sat_under_doctype). Either way
       each line is parsed and admitted when its turn comes (its trace,
       and so its deadline, starts then) and goes through
       [Service.handle]; a formula line answers exactly what the same
       formula sent as an NDJSON line answers. *)
    let ndjson =
      match items with (_, text) :: _ -> text.[0] = '{' | [] -> false
    in
    let default_timeout_ms = default_timeout timeout_ms in
    let config = config_of ~certificate:certify ~cache_capacity:cache in
    let svc, store = make_service ~config ?store_path ~store_verify () in
    let extra_of, certified = certifier ~certify ?cert_dir svc in
    let answer (lineno, text) =
      if ndjson then
        Xpds.Service.handle_line ?default_timeout_ms ~trace ~extra_of svc text
      else begin
        let tr = Xpds.Trace.create () in
        Xpds.Trace.mark tr "parse";
        match Xpds.Parser.formula_of_string text with
        | Error e ->
          Printf.eprintf "%s:%d: %s\n%!" file lineno e;
          exit 2
        | Ok f ->
          let r =
            { Xpds.Request.id = Printf.sprintf "L%d" lineno;
              timeout_ms = default_timeout_ms;
              body = Sat (Xpds.Ast.as_node f)
            }
          in
          Xpds.Service.answer_to_json ~trace ~extra_of
            (Xpds.Service.handle ~trace:tr svc r)
      end
    in
    List.iter (fun item -> print_endline (answer item)) items;
    if stats then print_metrics svc;
    close_store ~stats store;
    if not (certified ()) then exit 4
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Decide every formula in FILE, one after another, printing \
          one NDJSON response per formula (a crashing item \
          yields an {\"error\":..} response; the rest of the batch \
          still completes). When the first payload line opens a JSON \
          object, FILE is instead read as NDJSON protocol requests — \
          one {\"kind\":\"sat\"|\"eval\"|\"contains\"|\"equiv\"|\
          \"sat_under_doctype\", ...} request per line, answered in \
          order. With --certify every verdict is certified and \
          independently re-checked (exit 4 if any certificate fails); \
          with --trace, per-phase timings. With --store, a persistent \
          verdict store warm-starts the cache across processes. For a \
          multi-core run, send the same requests as NDJSON to \
          $(b,xpds serve --shards N).")
    Term.(
      const run $ file_arg $ timeout_arg $ cache_arg $ stats_arg
      $ certify_arg $ cert_dir_arg $ trace_arg $ store_arg $ store_verify_arg)

(* --- certify --- *)

let certify_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Certificate file (JSON).")
  in
  let budget_arg =
    let doc =
      "Work budget of the naive checker (transition evaluations); an \
       exhausted budget is reported as inconclusive, not as a \
       rejection."
    in
    Arg.(value & opt int 2_000_000 & info [ "budget" ] ~doc)
  in
  let run file budget =
    match Xpds.Cert.of_file file with
    | Error e ->
      Printf.eprintf "%s: %s\n%!" file e;
      exit 2
    | Ok cert -> (
      let t0 = Unix.gettimeofday () in
      let result = Xpds.Cert.check ~work_budget:budget cert in
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      match result with
      | Ok v ->
        Format.printf "%a (checked in %.1f ms)@." Xpds.Cert.pp_verdict v ms;
        exit 0
      | Error e ->
        Format.printf "REJECTED: %s@." e;
        exit 1)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Re-check a stored certificate with the independent naive \
          verifier. Exit: 0 certificate accepted, 1 rejected, 2 unreadable.")
    Term.(const run $ file_arg $ budget_arg)

(* --- cache: snapshot export / import / offline stats --- *)

let cache_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let num n = Xpds.Json.Num (float_of_int n) in
  let export_cmd =
    let src_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"STORE" ~doc:"Source store file.")
    in
    let dst_arg =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"SNAPSHOT" ~doc:"Destination snapshot file.")
    in
    let run src dst json =
      match Xpds.Store.export ~src ~dst with
      | Error e ->
        prerr_endline ("cache export: " ^ e);
        exit 2
      | Ok info ->
        if json then
          print_endline
            (Xpds.Json.to_string
               (Xpds.Json.Obj
                  [ ("snapshot", Xpds.Json.Str dst);
                    ("exported", num info.Xpds.Store.exported);
                    ("skipped", num info.Xpds.Store.skipped);
                    ("snapshot_bytes", num info.Xpds.Store.snapshot_bytes)
                  ]))
        else
          Format.printf
            "exported %d records to %s (%d bytes%s)@."
            info.Xpds.Store.exported dst info.Xpds.Store.snapshot_bytes
            (if info.Xpds.Store.skipped > 0 then
               Printf.sprintf ", %d corrupt records skipped"
                 info.Xpds.Store.skipped
             else "");
        exit 0
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Compact a verdict store into a fresh snapshot: one record \
            per live key, each re-verified against its own certificate \
            fingerprint, sorted for deterministic bytes.")
      Term.(const run $ src_arg $ dst_arg $ json_arg)
  in
  let import_cmd =
    let snap_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot to import.")
    in
    let dst_arg =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"STORE" ~doc:"Destination store file.")
    in
    let run snapshot store_path json =
      match Xpds.Store.import_into ~snapshot ~store_path with
      | Error e ->
        prerr_endline ("cache import: " ^ e);
        exit 2
      | Ok n ->
        if json then
          print_endline
            (Xpds.Json.to_string
               (Xpds.Json.Obj
                  [ ("store", Xpds.Json.Str store_path);
                    ("imported", num n)
                  ]))
        else Format.printf "imported %d records into %s@." n store_path;
        exit 0
    in
    Cmd.v
      (Cmd.info "import"
         ~doc:
           "Append a snapshot's records into a store (created when \
            absent), skipping keys already present. Refuses a snapshot \
            whose protocol or solver-config fingerprint disagrees with \
            the store's.")
      Term.(const run $ snap_arg $ dst_arg $ json_arg)
  in
  let stats_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"Store or snapshot file to inspect.")
    in
    let run file json =
      match Xpds.Store.file_stats file with
      | Error e ->
        prerr_endline ("cache stats: " ^ e);
        exit 2
      | Ok s ->
        let c = s.Xpds.Store.fs_totals in
        if json then
          print_endline
            (Xpds.Json.to_string
               (Xpds.Json.Obj
                  [ ("file", Xpds.Json.Str file);
                    ("protocol", num s.Xpds.Store.fs_protocol);
                    ("config", Xpds.Json.Str s.Xpds.Store.fs_config);
                    ("file_bytes", num s.Xpds.Store.fs_file_bytes);
                    ("dropped_bytes", num s.Xpds.Store.fs_dropped_bytes);
                    ("live_records", num s.Xpds.Store.fs_live);
                    ("record_frames", num s.Xpds.Store.fs_record_frames);
                    ("tombstones", num s.Xpds.Store.fs_tombstones);
                    ("sessions", num s.Xpds.Store.fs_sessions);
                    ( "verdicts",
                      Xpds.Json.Obj
                        (List.map
                           (fun (k, v) -> (k, num v))
                           s.Xpds.Store.fs_verdicts) );
                    ( "tiers",
                      Xpds.Json.Obj
                        [ ("memory", num c.Xpds.Store.memory_hits);
                          ("disk", num c.Xpds.Store.disk_hits);
                          ("solve", num c.Xpds.Store.misses)
                        ] );
                    ("self_evictions", num c.Xpds.Store.self_evictions);
                    ("appends", num c.Xpds.Store.appends)
                  ]))
        else begin
          Format.printf "%s: protocol v%d, config %s@." file
            s.Xpds.Store.fs_protocol s.Xpds.Store.fs_config;
          Format.printf
            "  %d live records (%d frames, %d tombstones) in %d bytes%s@."
            s.Xpds.Store.fs_live s.Xpds.Store.fs_record_frames
            s.Xpds.Store.fs_tombstones s.Xpds.Store.fs_file_bytes
            (if s.Xpds.Store.fs_dropped_bytes > 0 then
               Printf.sprintf " (%d damaged bytes dropped)"
                 s.Xpds.Store.fs_dropped_bytes
             else "");
          List.iter
            (fun (k, v) -> Format.printf "  %-16s %d@." k v)
            s.Xpds.Store.fs_verdicts;
          Format.printf
            "  lifetime (%d sessions): %d memory hits, %d disk hits, \
             %d misses, %d self-evictions, %d appends@."
            s.Xpds.Store.fs_sessions c.Xpds.Store.memory_hits
            c.Xpds.Store.disk_hits c.Xpds.Store.misses
            c.Xpds.Store.self_evictions c.Xpds.Store.appends
        end;
        exit 0
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Inspect a store or snapshot offline: header, live records, \
            verdict histogram, damage, and lifetime per-tier counters \
            summed over session frames.")
      Term.(const run $ file_arg $ json_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Manage persistent verdict stores: compact snapshots \
          ([export]), merge them into live stores ([import]), and \
          inspect files offline ([stats]).")
    [ export_cmd; import_cmd; stats_cmd ]

let () =
  let info =
    Cmd.info "xpds" ~version:"1.0.0"
      ~doc:
        "Satisfiability of downward XPath with data equality tests \
         (Figueira, PODS 2009)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sat_cmd; classify_cmd; check_cmd; explain_cmd; translate_cmd;
            contains_cmd; equiv_cmd; tiling_cmd; qbf_cmd; gen_cmd; repl_cmd;
            xml_cmd; eval_cmd; serve_cmd; batch_cmd; certify_cmd; cache_cmd
          ]))
