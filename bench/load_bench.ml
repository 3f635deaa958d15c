(* Open-loop load harness over the sharded router.

   A fixed-arrival-rate generator over a pool of small formulas (and
   containment pairs) whose answers are known from an in-process
   reference solve. The sweep measures capacity closed-loop first, then
   offers load at multiples of it from well under to well past
   saturation. Open-loop means arrivals never wait for completions:
   when the engine falls behind, queues build and the admission layer
   must shed.

   Per load point: latency distribution (p50/p95/p99/max), goodput
   (correct definite answers per second), shed rate. The gates are
   correctness-shaped, not throughput-shaped: every request is answered
   (a verdict, a structured error, or an overloaded shed — never
   silence), and no answered verdict ever disagrees with the in-process
   reference at any offered load. Timeouts answering "unknown" under
   pressure are graceful degradation, not wrongness.

   A final crash leg arms the workers' chaos hook, kills one worker
   mid-solve, and checks the router's isolation story end to end:
   in-flight requests on the dead shard answer structured errors, the
   worker respawns (counted in the aggregated metrics), and the next
   wave is answered cleanly.

   [run ()] is the full sweep behind BENCH_load.json; the smoke target
   runs [sweep ~quick:true] (fewer points, a smaller pool) for its
   gates. Both use 2 shards with admission queues of depth 64.

   Run with: dune exec bench/main.exe -- load *)

module Service = Xpds.Service
module Engine = Xpds.Engine
module Json = Xpds.Json

let now_ms () = Unix.gettimeofday () *. 1000.

(* Per-wave accumulator, filled by the engine's emit callback. *)
type acc = {
  mutable correct : int;  (* definite answer matching the reference *)
  mutable unknown : int;  (* answered "unknown" (deadline under load) *)
  mutable wrong : int;    (* definite answer contradicting the reference *)
  mutable shed : int;     (* {"error":"overloaded"} *)
  mutable errors : int;   (* any other structured error line *)
  mutable lat : float list;  (* ms, for verdict-carrying answers *)
}

let fresh_acc () =
  { correct = 0; unknown = 0; wrong = 0; shed = 0; errors = 0; lat = [] }

type entry = { pool_idx : int; sent_ms : float; acc : acc }

(* "unsat_bounded" decides the same question as "unsat", and
   "holds_bounded" the same as "holds": compare answer classes, not
   spellings. *)
let normalize = function
  | "unsat_bounded" -> "unsat"
  | "holds_bounded" -> "holds"
  | s -> s

(* The request pool: (name, wire fields sans id/timeout, answer field).
   Small instances only — the point is queueing behaviour, not solver
   stress, so per-request work stays in the low milliseconds. *)
let pool ~quick () =
  let f = Xpds.Pp.node_to_string in
  let sat name phi = (name, [ ("formula", Json.Str (f phi)) ], "verdict") in
  let contains name phi psi =
    ( name,
      [ ("kind", Json.Str "contains");
        ("phi", Json.Str phi);
        ("psi", Json.Str psi)
      ],
      "answer" )
  in
  [ sat "child_sat_3" (Families.child_chain ~sat:true 3);
    sat "child_unsat_2" (Families.child_chain ~sat:false 2);
    sat "data_sat_2" (Families.data_chain ~sat:true 2);
    sat "data_unsat_2" (Families.data_chain ~sat:false 2);
    sat "desc_sat_1" (Families.desc_data ~sat:true 1);
    sat "root_data_1" (Families.root_data 1);
    sat "mixed_sat_2" (Families.mixed_axes ~sat:true 2);
    sat "mixed_unsat_2" (Families.mixed_axes ~sat:false 2);
    contains "contains_holds" "<down[a & b]>" "<down[a]>";
    contains "contains_fails" "<down[a]>" "<down[a & b]>"
  ]
  @
  if quick then []
  else
    [ sat "child_sat_5" (Families.child_chain ~sat:true 5);
      sat "data_sat_3" (Families.data_chain ~sat:true 3);
      sat "root_data_2" (Families.root_data 2);
      sat "reg_alt_sat" (Families.reg_alternation ~sat:true ())
    ]

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let shards = 2

let queue_depth = 64

(* A tiny per-worker cache keeps steady-state requests genuine solves
   (the pool cycles, a big LRU would turn the sweep into a pipe
   benchmark). *)
let config = Service.Config.(default |> with_cache_capacity 2)

(* The sweep and crash leg: its gates, its report fields and its wall
   time. *)
let sweep ~quick () =
  let t_start = Unix.gettimeofday () in
  Format.printf "load%s: %d shards, queue depth %d@."
    (if quick then " (quick)" else "")
    shards queue_depth;
  let cases = Array.of_list (pool ~quick ()) in
  let n_cases = Array.length cases in

  (* Reference answers from the unsharded in-process path: the same
     NDJSON line through Service.handle_line, no timeout. These are
     what every sharded answer is held against. *)
  let ref_svc = Service.create Service.Config.default in
  let expected =
    Array.map
      (fun (name, fields, field) ->
        let line =
          Json.to_string (Json.Obj (("id", Json.Str "ref") :: fields))
        in
        let cls =
          match Json.parse (Service.handle_line ref_svc line) with
          | Ok v -> (
            match Json.member field v with
            | Some (Json.Str s) -> normalize s
            | _ -> "missing")
          | Error _ -> "missing"
        in
        Format.printf "  ref %-18s %s@." name cls;
        cls)
      cases
  in
  let reference_definite =
    Array.for_all (fun c -> c <> "unknown" && c <> "missing") expected
  in

  (* The engine under test; the chaos id arms the crash leg. *)
  let inflight : (string, entry) Hashtbl.t = Hashtbl.create 1024 in
  let emit line =
    let t = now_ms () in
    match Json.parse line with
    | Error _ -> ()
    | Ok v -> (
      match Json.member "id" v with
      | Some (Json.Str id) -> (
        match Hashtbl.find_opt inflight id with
        | None -> ()
        | Some e -> (
          Hashtbl.remove inflight id;
          let a = e.acc in
          match Json.member "error" v with
          | Some (Json.Str "overloaded") -> a.shed <- a.shed + 1
          | Some _ -> a.errors <- a.errors + 1
          | None ->
            let _, _, field = cases.(e.pool_idx) in
            (match Json.member field v with
            | Some (Json.Str s) ->
              let s = normalize s in
              if s = expected.(e.pool_idx) then a.correct <- a.correct + 1
              else if s = "unknown" then a.unknown <- a.unknown + 1
              else a.wrong <- a.wrong + 1
            | _ -> a.errors <- a.errors + 1);
            a.lat <- (t -. e.sent_ms) :: a.lat))
      | _ -> ())
  in
  let eng =
    Xpds.Shard.engine ~queue_depth ~chaos_crash_id:"chaos-boom" ~shards
      ~emit config
  in
  let submit_one ~acc ~tag ~i ?timeout_ms idx =
    let id = Printf.sprintf "%s-%d" tag i in
    let _, fields, _ = cases.(idx) in
    let line =
      Json.to_string
        (Json.Obj
           ((("id", Json.Str id) :: fields)
           @
           match timeout_ms with
           | Some t -> [ ("timeout_ms", Json.Num t) ]
           | None -> []))
    in
    Hashtbl.replace inflight id
      { pool_idx = idx; sent_ms = now_ms (); acc };
    Engine.submit eng line
  in
  (* Requests of [acc] still unanswered after a drain (gate: zero). *)
  let unanswered acc =
    let left =
      Hashtbl.fold
        (fun id e l -> if e.acc == acc then id :: l else l)
        inflight []
    in
    List.iter (Hashtbl.remove inflight) left;
    List.length left
  in

  (* Capacity calibration, closed-loop: a cold pass to settle the
     workers, then a timed pass whose throughput anchors the sweep. *)
  let cal_cold = fresh_acc () in
  Array.iteri (fun i _ -> submit_one ~acc:cal_cold ~tag:"cal0" ~i i) cases;
  Engine.drain eng;
  let cal = fresh_acc () in
  let reps = 3 in
  let t0 = now_ms () in
  for i = 0 to (reps * n_cases) - 1 do
    submit_one ~acc:cal ~tag:"cal1" ~i (i mod n_cases)
  done;
  Engine.drain eng;
  let cal_wall = (now_ms () -. t0) /. 1000. in
  let cal_un = unanswered cal_cold + unanswered cal in
  let capacity =
    float_of_int (reps * n_cases) /. (if cal_wall > 0. then cal_wall else 1e-3)
  in
  Format.printf "  capacity: %.0f req/s (closed-loop, %d requests)@."
    capacity (reps * n_cases);

  (* The open-loop sweep. *)
  let mults = if quick then [ 0.5; 2.0; 4.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let dur_s = if quick then 2.5 else 5.0 in
  let nmax = if quick then 250 else 600 in
  let timeout_ms = 1000. in
  let total_wrong = ref 0 in
  let total_unanswered = ref cal_un in
  let point_jsons =
    List.mapi
      (fun k m ->
        let rate = min 2000. (max 1.0 (capacity *. m)) in
        let n =
          max (2 * n_cases) (min nmax (int_of_float (rate *. dur_s)))
        in
        let acc = fresh_acc () in
        let interval_ms = 1000. /. rate in
        let t0 = now_ms () in
        for i = 0 to n - 1 do
          let target = t0 +. (float_of_int i *. interval_ms) in
          let rec wait () =
            Engine.pump eng;
            let nw = now_ms () in
            if nw < target then begin
              Unix.sleepf (min 0.002 ((target -. nw) /. 1000.));
              wait ()
            end
          in
          wait ();
          submit_one ~acc ~tag:(Printf.sprintf "pt%d" k) ~i ~timeout_ms
            (i mod n_cases)
        done;
        Engine.drain eng;
        let wall_s = (now_ms () -. t0) /. 1000. in
        let un = unanswered acc in
        total_wrong := !total_wrong + acc.wrong;
        total_unanswered := !total_unanswered + un;
        let lat = Array.of_list acc.lat in
        Array.sort compare lat;
        let goodput = float_of_int acc.correct /. wall_s in
        let shed_rate = float_of_int acc.shed /. float_of_int n in
        Format.printf
          "  %4.1fx  %7.0f req/s offered  %4d reqs  goodput %7.0f/s  \
           shed %4.0f%%  p95 %6.1f ms  wrong %d@."
          m rate n goodput (shed_rate *. 100.)
          (percentile lat 0.95) acc.wrong;
        Json.Obj
          [ ("multiplier", Json.Num m);
            ("offered_rps", Json.Num rate);
            ("requests", Json.Num (float_of_int n));
            ("correct", Json.Num (float_of_int acc.correct));
            ("unknown", Json.Num (float_of_int acc.unknown));
            ("wrong", Json.Num (float_of_int acc.wrong));
            ("shed", Json.Num (float_of_int acc.shed));
            ("errors", Json.Num (float_of_int acc.errors));
            ("unanswered", Json.Num (float_of_int un));
            ("wall_s", Json.Num wall_s);
            ("goodput_rps", Json.Num goodput);
            ("shed_rate", Json.Num shed_rate);
            ( "latency_ms",
              Json.Obj
                [ ("p50", Json.Num (percentile lat 0.50));
                  ("p95", Json.Num (percentile lat 0.95));
                  ("p99", Json.Num (percentile lat 0.99));
                  ( "max",
                    Json.Num
                      (if Array.length lat = 0 then 0.
                       else lat.(Array.length lat - 1)) )
                ] )
          ])
      mults
  in

  (* Crash leg: kill one worker mid-solve, check isolation + respawn.
     The boom formula is outside the pool so it cannot be a cache hit —
     the worker must die solving it. *)
  let crash = fresh_acc () in
  let boom_line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str "chaos-boom");
           ( "formula",
             Json.Str
               (Xpds.Pp.node_to_string (Families.child_chain ~sat:true 4)) )
         ])
  in
  Hashtbl.replace inflight "chaos-boom"
    { pool_idx = 0; sent_ms = now_ms (); acc = crash };
  Engine.submit eng boom_line;
  (* Followers race the crash: the ones routed to the dying shard must
     still be answered (structured errors), never dropped. *)
  for i = 0 to n_cases - 1 do
    submit_one ~acc:crash ~tag:"post" ~i i
  done;
  Engine.drain eng;
  let crash_un = unanswered crash in
  (* After the respawn, a clean wave must be answered without errors. *)
  let wave2 = fresh_acc () in
  for i = 0 to n_cases - 1 do
    submit_one ~acc:wave2 ~tag:"post2" ~i i
  done;
  Engine.drain eng;
  let wave2_un = unanswered wave2 in
  total_wrong := !total_wrong + cal.wrong + crash.wrong + wave2.wrong;
  let metrics =
    match Engine.metrics_json eng with Some m -> m | None -> Json.Obj []
  in
  let restarts =
    match Json.member "router" metrics with
    | Some r -> (
      match Json.member "worker_restarts" r with
      | Some (Json.Num x) -> int_of_float x
      | _ -> 0)
    | None -> 0
  in
  let crash_ok =
    crash_un = 0 && wave2_un = 0 && wave2.errors = 0 && wave2.shed = 0
    && wave2.wrong = 0 && restarts >= 1
  in
  total_unanswered := !total_unanswered + crash_un + wave2_un;
  Format.printf
    "  crash leg: %d error(s) on dying shard, %d restart(s), clean wave \
     %d/%d  %s@."
    crash.errors restarts (wave2.correct + wave2.unknown) n_cases
    (if crash_ok then "ok" else "FAIL");
  Engine.close eng;

  ( [ ("no_wrong_verdicts", !total_wrong = 0);
      ("all_answered", !total_unanswered = 0);
      ("reference_definite", reference_definite);
      ("crash_isolation", crash_ok)
    ],
    [ ("shards", Json.Num (float_of_int shards));
      ("queue_depth", Json.Num (float_of_int queue_depth));
      ("pool", Json.Num (float_of_int n_cases));
      ("capacity_rps", Json.Num capacity);
      ("timeout_ms", Json.Num timeout_ms);
      ("points", Json.Arr point_jsons);
      ( "crash",
        Json.Obj
          [ ("aborted_with_error", Json.Num (float_of_int crash.errors));
            ("worker_restarts", Json.Num (float_of_int restarts));
            ( "clean_wave_answered",
              Json.Num (float_of_int (wave2.correct + wave2.unknown)) )
          ] );
      ("metrics", metrics)
    ],
    Unix.gettimeofday () -. t_start )

let run () =
  let gates, fields, wall_s = sweep ~quick:false () in
  if Report.write ~out:"BENCH_load.json" ~bench:"load" ~config ~wall_s ~gates fields
  then 0
  else 1
