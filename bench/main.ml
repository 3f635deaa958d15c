(* Benchmark harness.

   Usage:
     dune exec bench/main.exe               # all experiment tables
     dune exec bench/main.exe e3 e7         # selected experiments
     dune exec bench/main.exe -- --bechamel # Bechamel micro-benchmarks

   Each experiment regenerates one row-set of EXPERIMENTS.md (DESIGN.md
   §4 maps them to the paper's claims). The Bechamel suite times one
   representative workload per experiment. *)

let bechamel_suite () =
  let open Bechamel in
  let quick name f = Test.make ~name (Staged.stage f) in
  let tests =
    [ quick "e1:child-chain-sat" (fun () ->
          ignore (Experiments.decide (Families.child_chain ~sat:true 6)));
      quick "e2:data-chain-sat" (fun () ->
          ignore (Experiments.decide (Families.data_chain ~sat:true 3)));
      quick "e3:qbf-encode+solve" (fun () ->
          let valid, _ = Families.qbf_family 2 in
          ignore (Experiments.decide (Xpds.Qbf_encoding.encode valid)));
      quick "e4:tiling-encode" (fun () ->
          ignore (Xpds.Tiling.encode (Xpds.Tiling_game.example_win ())));
      quick "e4:tiling-game-solve" (fun () ->
          ignore (Xpds.Tiling_game.eloise_wins (Xpds.Tiling_game.example_win ())));
      quick "e5:reg-alternation" (fun () ->
          ignore (Experiments.decide (Families.reg_alternation ~sat:true ())));
      quick "e6:desc-data-sat" (fun () ->
          ignore (Experiments.decide (Families.desc_data ~sat:true 2)));
      quick "e7:translate" (fun () ->
          ignore
            (Xpds.Translate.of_node (Families.desc_data ~sat:true 3)));
      quick "e10:containment" (fun () ->
          ignore
            (Xpds.Containment.contained
               (Xpds.Parser.node_of_string_exn "<down[a]>")
               (Xpds.Parser.node_of_string_exn "<desc[a]>")));
      quick "e12:model-search" (fun () ->
          ignore
            (Xpds.Model_search.satisfiable ~max_height:3 ~max_width:2
               ~max_data:2
               (Families.data_chain ~sat:true 2)))
    ]
  in
  let benchmark test =
    let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Format.printf "%-28s %12.2f ns/run@." name est
          | _ -> Format.printf "%-28s (no estimate)@." name)
        results)
    tests

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  if List.mem "--bechamel" args then bechamel_suite ()
  else begin
    let selected = List.filter (fun a -> a <> "--bechamel") args in
    (* The service and emptiness benchmarks write BENCH_*.json; opt-in
       only. *)
    let named =
      ("service", fun () -> ignore (Service_bench.run ()))
      :: ("emptiness", fun () -> ignore (Emptiness_bench.run ()))
      :: ("eval", fun () -> ignore (Eval_bench.run ()))
      :: ("store", fun () -> ignore (Store_bench.run ()))
      :: ("containment", fun () -> ignore (Containment_bench.run ()))
      :: ("load", fun () -> ignore (Load_bench.run ()))
      :: Experiments.all
    in
    let to_run =
      if selected = [] then Experiments.all
      else
        List.filter_map
          (fun name ->
            match List.assoc_opt name named with
            | Some f -> Some (name, f)
            | None ->
              Format.eprintf "unknown experiment %S (have: %s)@." name
                (String.concat ", " (List.map fst named));
              exit 2)
          selected
    in
    List.iter (fun (_, f) -> f ()) to_run;
    Format.printf "@.done.@."
  end
