(* One workload end to end: inputs, the oracle's pre-computation, the
   set-ups, the timed rounds, the check, and the metrics — returned as
   one JSON object for the parent process. Throughput is taken over
   rounds, not as a total over the whole run. *)

module J = Xpds.Json
open Drive

(* (name, unit) of every metric, in print order. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_rps", "req/s"); ("p50_ms", "ms");
    ("tail_ms", "ms"); ("decided_ratio", "1"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("xpath.parse_ms", "ms"); ("xpath.canonicalize_share", "1");
    ("automata.translate_share", "1"); ("automata.q", "count");
    ("decision.fixpoint_share", "1"); ("decision.verify_share", "1");
    ("decision.states", "count"); ("decision.transitions", "count");
    ("decision.mergings", "count"); ("decision.pruned", "count");
    ("decision.budget_exhausted_ratio", "1");
    ("service.cache_probe_ms", "ms"); ("service.memory_hit_ratio", "1");
    ("service.overhead_ms", "ms"); ("store.open_share", "1");
    ("store.probe_share", "1"); ("store.verify_share", "1");
    ("store.disk_hit_ratio", "1"); ("store.append_ratio", "1");
    ("eval.doc_build_share", "1"); ("eval.query_share", "1");
    ("eval.node_evals", "count"); ("eval.result_hit_ratio", "1");
    ("json.parse_ms", "ms"); ("trace.p50_overhead_ms", "ms") ]

(* Latency limit: the deadline every light-mix request carries. *)
let limit_ms = 100.

(* Set-ups timed for [setup_s] before each round, each closed at once;
   the set-up that opens the round is not counted. *)
let setup_reps = 3

let num = Check.num
let str = Check.str

(* Sum of a numeric field at [path] over metrics objects. *)
let msum metrics path =
  List.fold_left
    (fun acc m ->
      let rec go v = function
        | [] -> (match v with J.Num x -> x | _ -> 0.)
        | k :: rest -> (match J.member k v with Some v -> go v rest | None -> 0.)
      in
      acc +. go m path)
    0. metrics

(* --- before timing: the oracle's own work --- *)

type oracle = {
  models : (string, bool array) Hashtbl.t;
      (** bounded model search over a seeded sample of requests *)
  eval_ref : (string, Check.eval_answer) Hashtbl.t;
}

let oracle ~seed (wl : Workload.t) =
  let st = Random.State.make [| seed; 0xc0de |] in
  let candidates =
    List.filter
      (fun (r : Workload.request) ->
        r.known = None
        && match r.body with
           | Inputs.Sat _ | Inputs.Contains _ | Inputs.Equiv _ -> true
           | _ -> false)
      (Array.to_list (Workload.requests wl))
  in
  let models = Hashtbl.create 64 in
  Array.iteri
    (fun i (r : Workload.request) ->
      if i < 30 then
        Option.iter (fun m -> Hashtbl.replace models r.id m) (Check.models r.body))
    (Workload.shuffle st (Array.of_list candidates));
  (* Reference eval answers: every inline-tree query, and the first few
     distinct queries on each registered document. *)
  let eval_ref = Hashtbl.create 64 and per_doc = Hashtbl.create 4 in
  Array.iter
    (fun (r : Workload.request) ->
      let key = Workload.fields r.body in
      if not (Hashtbl.mem eval_ref key) then
        match r.body with
        | Inputs.Eval_tree (q, t) -> Hashtbl.add eval_ref key (Check.reference_eval t q)
        | Inputs.Eval_doc (q, d) ->
          let k = Option.value ~default:0 (Hashtbl.find_opt per_doc d) in
          if k < 4 then begin
            Hashtbl.replace per_doc d (k + 1);
            Hashtbl.add eval_ref key (Check.reference_eval (List.assoc d wl.docs) q)
          end
        | _ -> ())
    (Workload.requests wl);
  { models; eval_ref }

(* --- judging: every answer, and the layer facts it carries --- *)

type tally = {
  mutable attempted : int;
  mutable answered : int;
  mutable definite : int;
  mutable wrong : int;
  mutable errors : int;
  mutable unanswered : int;
  mutable duplicates : int;
  mutable problems : string list;
  mutable observed_ms : float;  (** Σ sent→answered over answered requests *)
  mutable tiers : (string * int) list;
  mutable budget_exhausted : int;
  mutable solver_answers : int;
  mutable eval_answers : int;
  mutable eval_cached : int;
  mutable node_evals : float;
}

let tally () =
  { attempted = 0; answered = 0; definite = 0; wrong = 0; errors = 0;
    unanswered = 0; duplicates = 0; problems = []; observed_ms = 0.;
    tiers = []; budget_exhausted = 0; solver_answers = 0;
    eval_answers = 0; eval_cached = 0; node_evals = 0. }

let problem t fmt =
  Printf.ksprintf
    (fun s -> if List.length t.problems < 8 then t.problems <- s :: t.problems)
    fmt

(* The service-side pieces of one answer: an equiv answer carries them
   per direction. *)
let parts v =
  match (J.member "forward" v, J.member "backward" v) with
  | Some f, Some b -> [ f; b ]
  | _ -> [ v ]

let phases v =
  List.concat_map
    (fun p ->
      match Option.bind (J.member "trace" p) (J.member "phases") with
      | Some (J.Obj l) ->
        List.filter_map (fun (k, x) -> Option.map (fun x -> (k, x)) (J.to_float x)) l
      | _ -> [])
    (parts v)

let budget_ran_out p =
  (str "verdict" p = Some "unknown" || str "answer" p = Some "unknown")
  && str "reason" p <> Some Xpds.Emptiness.deadline_exceeded

let note t v (r : Workload.request) ~observed =
  t.answered <- t.answered + 1;
  t.observed_ms <- t.observed_ms +. observed;
  List.iter
    (fun p ->
      Option.iter
        (fun tier ->
          t.tiers <-
            (tier, 1 + Option.value ~default:0 (List.assoc_opt tier t.tiers))
            :: List.remove_assoc tier t.tiers)
        (str "tier" p);
      if str "verdict" p <> None || str "answer" p <> None then begin
        t.solver_answers <- t.solver_answers + 1;
        if budget_ran_out p then t.budget_exhausted <- t.budget_exhausted + 1
      end)
    (parts v);
  match r.body with
  | Inputs.Eval_tree _ | Inputs.Eval_doc _ ->
    t.eval_answers <- t.eval_answers + 1;
    if J.member "cached" v = Some (J.Bool true) then t.eval_cached <- t.eval_cached + 1;
    t.node_evals <- t.node_evals +. Option.value ~default:0. (num "node_evals" v)
  | _ -> ()

(* Judge one request: its latency from sending to answer — a failed
   request counts as answered at its deadline — and whether its answer
   was definite. *)
let judge ~trace ~deadline o t (r : Workload.request) s =
  let idx = t.attempted in
  t.attempted <- t.attempted + 1;
  let missed = (deadline, false) in
  if s.answers = 0 then begin
    t.unanswered <- t.unanswered + 1;
    problem t "%s unanswered" r.id;
    missed
  end
  else begin
    if s.answers > 1 then begin
      t.duplicates <- t.duplicates + 1;
      problem t "%s answered %d times" r.id s.answers
    end;
    let t0 = now () in
    let parsed = J.parse s.resp in
    let t1 = now () in
    let req_span = add_span ~trace "request" ~req:idx s.sent s.got in
    ignore (add_span ~trace "json.parse" ~parent:req_span ~req:idx t0 t1);
    match parsed with
    | Error e ->
      t.errors <- t.errors + 1;
      problem t "%s: unparsable answer (%s)" r.id e;
      missed
    | Ok v -> (
      match Check.judge ~eval_ref:o.eval_ref ~model:(Hashtbl.find_opt o.models r.id) r v with
      | Check.Error e ->
        t.errors <- t.errors + 1;
        problem t "%s: error %s" r.id e;
        missed
      | Check.Wrong why ->
        t.wrong <- t.wrong + 1;
        problem t "%s WRONG: %s -- %s" r.id why r.line;
        missed
      | Check.Answer { definite } ->
        if definite then t.definite <- t.definite + 1;
        note t v r ~observed:(s.got -. s.sent);
        if trace then begin
          (* The phases an answer carries become child spans, laid out
             back to back so that they end at the answer. *)
          let ph = phases v in
          let total = List.fold_left (fun a (_, d) -> a +. d) 0. ph in
          ignore
            (List.fold_left
               (fun at (name, d) ->
                 ignore (add_span ~trace name ~parent:req_span ~req:idx at (at +. d));
                 at +. d)
               (s.got -. total) ph)
        end;
        (s.got -. s.sent, definite))
  end

(* --- the box's speed ---

   The speed the reference box (two cores of a Xeon VM) gives a process
   drifts by up to 2x over seconds to minutes (an identical loop took
   0.05 s and 0.11 s a minute apart), and a whole 15 s run can sit in a
   slow stretch. Timings are therefore reported at a reference speed: a
   probe of fixed work that uses none of the code under test
   ([Drive.speed_probe]) runs between rounds, and a round's times are
   scaled by [Drive.speed] of the probe's times around it. The times as
   measured stay in the output ("raw_end_to_end"). *)

(* One round: [good] counts its answers; [p50] and [tail] are its
   latency percentiles, as measured; [speed] scales its times to the
   reference speed. *)
type round_stats = {
  good : int;
  seconds : float;
  speed : float;
  p50 : float;
  tail : float;
}

(* The highest percentile that leaves ten requests of a round of [n]
   beyond it. *)
let tail_of n = if n >= 1000 then (0.99, "p99") else (0.9, "p90")

let round_stats ~good ~seconds ~speed ~tail_q latencies =
  let l = Stats.sorted (Array.to_list latencies) in
  { good; seconds; speed; p50 = Stats.percentile l 0.5; tail = Stats.percentile l tail_q }

(* Latencies pooled over the rounds, as measured and at the reference
   speed. *)
type lats = { raw : int array; scaled : int array }

let lats () = { raw = Stats.hist (); scaled = Stats.hist () }

let add_lats l ~speed a =
  Array.iter
    (fun x ->
      Stats.add l.raw x;
      Stats.add l.scaled (x *. speed))
    a

(* --- the timed rounds --- *)

type timed = {
  wl : Workload.t;
  rounds : round_stats list;
  latency : lats;
  setups : (float * float) list;  (** set-up time in s, and its speed *)
  metrics : J.t list;  (** the engines' own metrics, one per engine *)
  rss : float;
  keys : int;  (** warm-store: records in the prepared store *)
}

let timed_rounds ~trace ~judge ~name ~seed ~seconds ~quick =
  let wl = Workload.generate ~name ~seed ~quick in
  let judge = judge (oracle ~seed wl) in
  let keys = ref 0 and cleanup = ref ignore in
  let setup, before_setup =
    match name with
    | "hard-solve" -> (setup_service ~trace Workload.hard_config, ignore)
    | "light-mix" -> (setup_service ~trace Xpds.Service.Config.default, ignore)
    | "eval-docs" -> (setup_docs ~trace wl.docs, ignore)
    | _ ->
      (* warm-store: solve the key set into a store file, untimed; every
         set-up then opens a fresh copy of it *)
      let dir = Filename.concat "benchmark" "_work" in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let file k = Filename.concat dir (Printf.sprintf "%s-%d.store" k (Unix.getpid ())) in
      let prep = file "prep" and path = file "round" in
      let remove f = try Sys.remove f with Sys_error _ -> () in
      (cleanup :=
         fun () ->
           remove prep;
           remove path;
           try Unix.rmdir dir with Unix.Unix_error _ -> ());
      remove prep;
      let config = Xpds.Service.Config.default in
      let store = open_store ~path:prep config in
      let svc = Xpds.Service.create ~store config in
      Array.iter
        (fun (r : Workload.request) -> ignore (Xpds.Service.handle_line svc r.line))
        wl.prep;
      keys := Xpds.Store.length store;
      Xpds.Store.close store;
      let bytes = In_channel.with_open_bin prep In_channel.input_all in
      ( setup_store ~trace ~path ~capacity:(max 1 (!keys / 4)),
        fun () -> Out_channel.with_open_bin path (fun oc -> output_string oc bytes) )
  in
  let setup_once () =
    before_setup ();
    timed_setup setup
  in
  let tail_q = fst (tail_of (Array.length wl.rounds.(0))) in
  let rounds = ref [] and metrics = ref [] and setups = ref [] and lat = lats () in
  let measured = ref 0. and last = ref 0. and rss = ref 0. in
  (* a round runs at the speed read before and after it *)
  let probe = ref (speed_probe ()) in
  (* Rounds until the next one would overrun the run length; each round
     is judged as soon as it ends, outside the timed stretch. *)
  while !rounds = [] || !measured +. !last <= 1.05 *. seconds do
    let reqs = wl.rounds.(List.length !rounds mod Array.length wl.rounds) in
    let lines = Array.map (fun (q : Workload.request) -> q.line) reqs in
    (* Each round starts from a compacted heap, not the last round's
       garbage, and so do the set-ups timed for [setup_s]: spread over
       the run, they sample the box's states as the rounds do. *)
    Gc.compact ();
    for _ = 1 to setup_reps do
      let e, s = setup_once () in
      e.close ();
      setups := (s, speed !probe !probe) :: !setups
    done;
    let e, _ = setup_once () in
    let out, dt = closed_round e lines in
    let after = speed_probe () in
    let speed = speed !probe after in
    probe := after;
    (* Peak memory is read after the fourth round: OCaml 5.1 does not
       give the heap back between rounds, so a later reading grows with
       the number of rounds a run fits in, and an earlier one is at the
       mercy of where a single round's garbage collections fell. *)
    if List.length !rounds = 3 then rss := peak_rss_mb ();
    metrics := Option.to_list (Xpds.Engine.metrics_json e.eng) @ !metrics;
    e.close ();
    let res = Array.map2 judge reqs out in
    let latencies = Array.map fst res in
    add_lats lat ~speed latencies;
    let answered = Array.fold_left (fun a s -> if s.answers > 0 then a + 1 else a) 0 out in
    rounds := round_stats ~good:answered ~seconds:dt ~speed ~tail_q latencies :: !rounds;
    measured := !measured +. dt;
    last := dt
  done;
  !cleanup ();
  { wl; rounds = List.rev !rounds; latency = lat; setups = !setups; metrics = !metrics;
    rss = (if !rss > 0. then !rss else peak_rss_mb ()); keys = !keys }

(* |Q| of the translated automaton over a sample of the run's solver
   requests: Sat.decide with a one-transition budget stops right after
   translation. *)
let automaton_q (reqs : Workload.request array) =
  let options =
    { Xpds.Sat.Options.default with Xpds.Sat.Options.max_transitions = 1; max_states = 1 }
  in
  List.filteri (fun i _ -> i < 500) (Array.to_list reqs)
  |> List.filter_map (fun (r : Workload.request) ->
         match r.body with
         | Inputs.Sat phi -> Some (Xpds.Sat.decide ~options phi)
         | Inputs.Contains (phi, psi) | Inputs.Equiv (phi, psi) ->
           Some (Xpds.Sat.decide ~options (Check.diff phi psi))
         | Inputs.Doctype (phi, doctype) ->
           Some (Xpds.Sat.decide_under_doctype ~options ~doctype phi)
         | _ -> None)
  |> List.map (fun r -> float_of_int r.Xpds.Sat.automaton_q)
  |> Stats.mean

(* Per-layer metrics of a traced run, from the spans' self times, the
   answers' own fields and the engines' metrics. A layer time that only
   some workloads exercise is a share of the observed request time (or
   of set-up time), so that every metric is defined on every workload. *)
let layer_metrics ~name ~t ~(m : timed) =
  let sum names =
    List.fold_left (fun a n -> a +. Option.value ~default:0. (Hashtbl.find_opt self_ms n)) 0. names
  in
  let fixpoint =
    Hashtbl.fold
      (fun k v a -> if String.starts_with ~prefix:"fixpoint" k then a +. v else a)
      self_ms 0.
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let share x = ratio x t.observed_ms in
  let per_answer x = ratio x (float_of_int t.answered) in
  let tier k = float_of_int (Option.value ~default:0 (List.assoc_opt k t.tiers)) in
  let tiered = tier "memory" +. tier "disk" +. tier "solve" in
  let setup_share p =
    ratio (Option.value ~default:0. (Hashtbl.find_opt setup_parts p))
      (Hashtbl.fold (fun _ v a -> a +. v) setup_parts 0.)
  in
  let fix k = ratio (msum m.metrics [ "fixpoint"; k ]) (tier "solve") in
  let verify_ms =
    Stats.sum
      (List.map
         (fun x -> msum [ x ] [ "store"; "disk_hits" ] *. msum [ x ] [ "store"; "verify_ms"; "mean" ])
         m.metrics)
  in
  let attempted = float_of_int t.attempted in
  [ ("xpath.parse_ms", per_answer (sum [ "parse" ]));
    ("xpath.canonicalize_share", share (sum [ "canonicalize" ]));
    ("automata.translate_share", share (sum [ "translate"; "doctype_restrict" ]));
    ("automata.q", if name = "eval-docs" then 0. else automaton_q (Workload.requests m.wl));
    ("decision.fixpoint_share", share fixpoint);
    ("decision.verify_share", share (sum [ "verify" ]));
    ("decision.states", fix "states");
    ("decision.transitions", fix "transitions");
    ("decision.mergings", fix "mergings");
    ("decision.pruned", fix "subsumed_pruned");
    ( "decision.budget_exhausted_ratio",
      ratio (float_of_int t.budget_exhausted) (float_of_int t.solver_answers) );
    ("service.cache_probe_ms", per_answer (sum [ "cache_probe"; "eval_cache_probe" ]));
    ("service.memory_hit_ratio", ratio (tier "memory") tiered);
    ("service.overhead_ms", per_answer (sum [ "request" ]));
    ("store.open_share", setup_share "Store.open_rw");
    ("store.probe_share", share (sum [ "store_probe" ]));
    ("store.verify_share", share verify_ms);
    ("store.disk_hit_ratio", ratio (tier "disk") tiered);
    ("store.append_ratio", ratio (msum m.metrics [ "store"; "appends" ]) attempted);
    ("eval.doc_build_share", setup_share "Eval_doc.of_tree");
    ("eval.query_share", share (sum [ "eval_resolve"; "eval_run"; "eval_positions" ]));
    ("eval.node_evals", ratio t.node_evals (float_of_int t.eval_answers));
    ("eval.result_hit_ratio", ratio (float_of_int t.eval_cached) (float_of_int t.eval_answers));
    ("json.parse_ms", ratio (sum [ "json.parse" ]) attempted) ]

(* --- one workload --- *)

let run ~name ~seed ~seconds ~quick ~trace ~span_limit =
  kept := span_limit;
  let deadline = if name = "light-mix" then limit_ms else 10_000. in
  let t = tally () in
  let judge o = judge ~trace ~deadline o t in
  let m = timed_rounds ~trace ~judge ~name ~seed ~seconds ~quick in
  let rate w = float_of_int w.good /. w.seconds in
  let med f l = Stats.median (List.map f l) in
  let tail_q, tail_name = tail_of (Array.length m.wl.rounds.(0)) in
  (* Throughput is the median over the rounds, and the latency
     percentiles are those of every round's latencies pooled; each
     round's times at its own speed, or as measured ([~raw]). *)
  let end_to_end ~raw =
    let k sp = if raw then 1. else sp in
    let pct q = Stats.hist_percentile (if raw then m.latency.raw else m.latency.scaled) q in
    [ ("setup_s", med (fun (s, sp) -> s *. k sp) m.setups);
      ("throughput_rps", med (fun w -> rate w /. k w.speed) m.rounds);
      ("p50_ms", pct 0.5);
      ("tail_ms", pct tail_q);
      ("decided_ratio", float_of_int t.definite /. float_of_int t.attempted);
      ("peak_rss_mb", m.rss) ]
  in
  let failed = t.wrong + t.unanswered + t.errors + t.duplicates in
  let correct = failed = 0 in
  let layer = if trace then layer_metrics ~name ~t ~m else [] in
  let nums l = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) l) in
  let count k v = (k, J.Num (float_of_int v)) in
  (* Every round as measured, for looking into a run's spread. *)
  let round w =
    nums [ ("rps", rate w); ("p50_ms", w.p50); ("tail_ms", w.tail); ("speed", w.speed) ]
  in
  J.Obj
    ([ ("workload", J.Str name);
       ("seed", J.Num (float_of_int seed));
       ("digest", J.Str m.wl.digest);
       count "requests" (Array.length m.wl.rounds.(0));
       ("correct", J.Bool correct);
       count "attempted" t.attempted;
       count "failed" failed;
       ( "counts",
         J.Obj
           [ count "answered" t.answered; count "definite" t.definite;
             count "wrong" t.wrong; count "errors" t.errors;
             count "unanswered" t.unanswered; count "duplicates" t.duplicates ] );
       ("problems", J.Arr (List.rev_map (fun s -> J.Str s) t.problems));
       ("tail", J.Str tail_name);
       ("end_to_end", nums (end_to_end ~raw:false));
       ("per_layer", nums layer);
       ( "extra",
         J.Obj
           ([ ( "error_ratio",
                J.Num (float_of_int (t.errors + t.unanswered) /. float_of_int t.attempted) );
              ("raw_end_to_end", nums (end_to_end ~raw:true));
              ("speed", J.Num (med (fun w -> w.speed) m.rounds));
              ("tiers", J.Obj (List.map (fun (k, v) -> count k v) (List.sort compare t.tiers)));
              ("rounds", J.Arr (List.map round m.rounds)) ]
           @ if name = "warm-store" then [ count "canonical_keys" m.keys ] else []) )
     ]
    @ if trace && span_limit > 0 then [ ("spans", spans_json ()) ] else [])
