(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                # all experiment tables
     dune exec bench/main.exe -- e3 e7       # selected experiments
     dune exec bench/main.exe -- emptiness   # BENCH_emptiness.json
     dune exec bench/main.exe -- load        # BENCH_load.json
     dune exec bench/main.exe -- smoke       # the CI smoke gates

   Each experiment regenerates one row-set of EXPERIMENTS.md (DESIGN.md
   §4 maps them to the paper's claims). [emptiness] and [load] write the
   committed artifacts and exit 1 when a gate fails; [smoke] runs the
   gates that are wall-clock ratios or too slow for dune runtest and
   exits 1 when any fails. Timing claims go through benchmark/. *)

let () =
  let selected =
    List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv))
  in
  let experiment f () =
    f ();
    0
  in
  let named =
    ("emptiness", Emptiness_bench.run)
    :: ("load", Load_bench.run)
    :: ("smoke", Smoke.run)
    :: List.map (fun (name, f) -> (name, experiment f)) Experiments.all
  in
  let to_run =
    if selected = [] then List.map (fun (_, f) -> experiment f) Experiments.all
    else
      List.map
        (fun name ->
          match List.assoc_opt name named with
          | Some f -> f
          | None ->
            Format.eprintf "unknown entry %S (have: %s)@." name
              (String.concat ", " (List.map fst named));
            exit 2)
        selected
  in
  let failed = List.fold_left (fun acc f -> f () + acc) 0 to_run in
  Format.printf "@.done.@.";
  exit (if failed = 0 then 0 else 1)
