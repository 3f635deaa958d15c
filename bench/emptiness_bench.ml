(* The cold-corpus artifact: one cold sequential pass over the shared
   corpus on the default service configuration. Writes
   BENCH_emptiness.json: wall time, engine throughput, and per Fig. 4
   row ({!Xpds.Fragment.classify}) the formulas, verdicts, solve time,
   transitions and memo replays.

   Run with: dune exec bench/main.exe -- emptiness *)

module Service = Xpds.Service
module Sat = Xpds.Sat
module Emptiness = Xpds.Emptiness
module Fragment = Xpds.Fragment
module Json = Xpds.Json

let verdict_names = [ "sat"; "unsat"; "unsat_bounded"; "unknown" ]

let verdict_of (r : Service.response) =
  Service.verdict_name r.Service.report.Sat.verdict

(* One cold pass over [formulas], one request after another on a fresh
   service (so each response's [ms] is its own latency): the wall time
   and the responses, in corpus order. *)
let corpus_pass formulas =
  let svc = Service.create Service.Config.default in
  let reqs = Corpus.requests formulas in
  let t0 = Unix.gettimeofday () in
  let resps = List.map (Corpus.solve svc) reqs in
  (Unix.gettimeofday () -. t0, resps)

let num i = Json.Num (float_of_int i)

let sum f resps = List.fold_left (fun a r -> a + f r) 0 resps

let stats (r : Service.response) = r.Service.report.Sat.stats

let transitions = sum (fun r -> (stats r).Emptiness.n_transitions)

let replayed = sum (fun r -> (stats r).Emptiness.n_replayed)

let solve_ms = List.fold_left (fun a (r : Service.response) -> a +. r.Service.ms) 0.

let verdict_counts resps =
  Json.Obj
    (List.map
       (fun v ->
         (v, num (List.length (List.filter (fun r -> verdict_of r = v) resps))))
       verdict_names)

(* The responses grouped by the Fig. 4 row of their formula, rows in
   order of first appearance in the corpus. *)
let by_fragment formulas resps =
  let rows = ref [] in
  List.iter2
    (fun phi r ->
      let row = Fragment.name (Fragment.classify phi) in
      match List.assoc_opt row !rows with
      | Some rs -> rs := r :: !rs
      | None -> rows := (row, ref [ r ]) :: !rows)
    formulas resps;
  List.rev_map (fun (row, rs) -> (row, List.rev !rs)) !rows

let run () =
  let formulas = Corpus.formulas () in
  let n = List.length formulas in
  Format.printf "emptiness: %d formulas, cold@." n;
  let wall, resps = corpus_pass formulas in
  let states = sum (fun r -> (stats r).Emptiness.n_states) resps
  and mergings = sum (fun r -> (stats r).Emptiness.n_mergings) resps in
  let per_s x = Json.Num (float_of_int x /. wall) in
  Format.printf "  wall: %.2f s (%.1f formulas/s)@." wall
    (float_of_int n /. wall);
  Format.printf "  engine: %d states, %d transitions (%d replayed), %d mergings@."
    states (transitions resps) (replayed resps) mergings;
  let rows = by_fragment formulas resps in
  List.iter
    (fun (row, rs) ->
      Format.printf "    %-22s %3d formulas %8.1f ms  %8d of %8d replayed@."
        row (List.length rs) (solve_ms rs) (replayed rs) (transitions rs))
    rows;
  (* No gates: the one pass has nothing to compare against. *)
  ignore
    (Report.write ~out:"BENCH_emptiness.json" ~bench:"emptiness" ~wall_s:wall
      ~gates:[]
      [ ("formulas", num n);
        ("cold_wall_s", Json.Num wall);
        ("formulas_per_s", Json.Num (float_of_int n /. wall));
        ( "engine",
          Json.Obj
            [ ("states", num states);
              ("transitions", num (transitions resps));
              ("mergings", num mergings);
              ("replayed", num (replayed resps));
              ("states_per_s", per_s states);
              ("transitions_per_s", per_s (transitions resps));
              ("mergings_per_s", per_s mergings)
            ] );
        ("verdicts", verdict_counts resps);
        ( "by_fragment",
          Json.Obj
            (List.map
               (fun (row, rs) ->
                 ( row,
                   Json.Obj
                     [ ("formulas", num (List.length rs));
                       ("verdicts", verdict_counts rs);
                       ("solve_ms", Json.Num (solve_ms rs));
                       ("transitions", num (transitions rs));
                       ("replayed", num (replayed rs))
                     ] ))
               rows) )
      ]);
  0
