module Sat = Xpds_decision.Sat
module Emptiness = Xpds_decision.Emptiness
module Fragment = Xpds_xpath.Fragment
module Data_tree = Xpds_datatree.Data_tree
module Store = Xpds_store.Store
module Containment = Xpds_decision.Containment

(* The one construction seam: a plain record + with_* combinators.
   Every construction site (bin, bench, shard workers, tests) builds a
   Config.t and calls [create]. *)
module Config = struct
  type solver = Sat.Options.t
  type t = { solver : solver; cache_capacity : int; max_doc_nodes : int }

  let default_solver = Sat.Options.default

  let default =
    { solver = default_solver; cache_capacity = 4096; max_doc_nodes = 200_000 }

  let with_solver f t = { t with solver = f t.solver }
  let with_width w = with_solver (Sat.Options.with_width w)
  let with_max_states n = with_solver (Sat.Options.with_max_states n)
  let with_max_transitions n = with_solver (Sat.Options.with_max_transitions n)
  let with_certificate c = with_solver (Sat.Options.with_certificate c)
  let with_cache_capacity cache_capacity t = { t with cache_capacity }
  let with_max_doc_nodes max_doc_nodes t = { t with max_doc_nodes }
  let fingerprint = Sat.Options.fingerprint
end

type response = {
  id : string;
  report : Sat.report;
  cached : bool;
  tier : string;  (** "memory" | "disk" | "solve" *)
  ms : float;
  key : Cache_key.t;
  trace : Trace.t;
}

type answer =
  | Sat_answer of response
  | Contains_answer of response
  | Equiv_answer of { forward : response; backward : response; ms : float }
  | Doctype_answer of response
  | Eval_answer of Eval_verb.response

(* Which tier answered: the in-process caches (including flight joins),
   the persistent store (carrying its verify-on-load latency), or a
   fresh solve. *)
type tier = Tier_memory | Tier_disk of float | Tier_solve

let tier_name = function
  | Tier_memory -> "memory"
  | Tier_disk _ -> "disk"
  | Tier_solve -> "solve"

type t = {
  cfg : Config.t;
  fingerprint : string;
  store : Store.t option;
      (** the disk tier under the LRU; guarded by its own mutex, so
          probes and admissions happen outside the service lock *)
  cache : Sat.report Lru.t;
  flight : Sat.report Flight.t;  (** over [cache] *)
  meters : Metrics.t;
  lock : Mutex.t;
  chaos : (string -> unit) option Atomic.t;
  eval : Eval_verb.t;
}

let crash_prefix = "crash: "

let is_crash (report : Sat.report) =
  match report.Sat.verdict with
  | Sat.Unknown why -> String.starts_with ~prefix:crash_prefix why
  | _ -> false

(* A deadline verdict depends on wall-clock luck and a crash verdict on
   a hopefully-transient fault; every other verdict is a deterministic
   function of (canonical formula, solver config) and safe to replay
   from the cache — including budget-limited [Unknown]s, which would
   exhaust the same budget again. *)
let cacheable (report : Sat.report) =
  match report.Sat.verdict with
  | Sat.Unknown why ->
    why <> Emptiness.deadline_exceeded
    && not (String.starts_with ~prefix:crash_prefix why)
  | _ -> true

let create ?store (config : Config.t) =
  let lock = Mutex.create () and meters = Metrics.create () in
  let cache = Lru.create ~capacity:config.cache_capacity in
  {
    cfg = config;
    fingerprint = Config.fingerprint config.solver;
    store;
    cache;
    flight = Flight.create ~lock ~cache ~admit:cacheable ();
    meters;
    lock;
    chaos = Atomic.make None;
    eval = Eval_verb.create ~lock ~meters ~max_doc_nodes:config.max_doc_nodes;
  }

let config t = t.cfg
let metrics t = Mutex.protect t.lock (fun () -> Metrics.to_json t.meters)

let record_cert t ~ok ~ms =
  Mutex.protect t.lock (fun () -> Metrics.record_cert t.meters ~ok ~ms)
let cache_length t = Mutex.protect t.lock (fun () -> Lru.length t.cache)
let inflight_waiters t = Mutex.protect t.lock (fun () -> Flight.waiters t.flight)
let register_doc t = Eval_verb.register_doc t.eval
let registered_docs t = Eval_verb.registered_docs t.eval

module Chaos = struct
  let set t f = Atomic.set t.chaos f
end

let zero_stats =
  {
    Emptiness.n_states = 0;
    n_transitions = 0;
    n_mergings = 0;
    max_height_reached = 0;
    n_replayed = 0;
    n_fresh_keys = 0;
    n_applied = 0;
  }

let synthetic_report ~algorithm canon why =
  {
    Sat.verdict = Sat.Unknown why;
    fragment = Fragment.classify canon;
    algorithm;
    stats = zero_stats;
    witness_verified = None;
    automaton_q = 0;
    automaton_k = 0;
    cert_seed = None;
  }

(* The deadline is an absolute [Trace.now_ms] timestamp anchored at
   the request's admission, so time spent waiting on a flight counts
   against the budget and a request can never exceed its caller-visible
   deadline. Never raises: a crashing solver (or chaos hook) is folded
   into a [crash:] error report. [body] picks the decision procedure: plain
   satisfiability (also the ϕ∧¬ψ query of the containment verbs) or
   doctype-constrained satisfiability. *)
let solve_uncached t ~trace ~deadline ~id (body : Request.body) canon =
  Trace.mark trace "solve";
  let expired =
    match deadline with
    | Some d -> Trace.now_ms () >= d
    | None -> false
  in
  let run () =
    let options =
      {
        t.cfg.solver with
        Sat.Options.should_stop =
          Option.map (fun d () -> Trace.now_ms () > d) deadline;
        on_phase = Trace.mark trace;
      }
    in
    (match Atomic.get t.chaos with Some f -> f id | None -> ());
    match body with
    | Doctype { doctype; _ } -> Sat.decide_under_doctype ~options ~doctype canon
    | _ -> Sat.decide ~options canon
  in
  let report =
    if expired then
      (* Admission-anchored budget already gone (e.g. timeout_ms = 0, or
         a flight wait consumed it): answer deterministically without
         starting a fixpoint. *)
      synthetic_report ~algorithm:"rejected: deadline at admission" canon
        Emptiness.deadline_exceeded
    else
      match run () with
      | report -> report
      | exception e ->
        synthetic_report ~algorithm:"aborted: the solver raised" canon
          (crash_prefix ^ Printexc.to_string e)
  in
  Trace.finish trace;
  report

let deadline_of trace timeout_ms =
  Option.map (fun ms -> Trace.admitted trace +. ms) timeout_ms

(* [key]'s kind and scope tag the store record; [metric] picks the
   metrics bucket. The memory tier is filled by the flight's leader.
   [ms] counts from the request's admission. *)
let finish t ~id ~(key : Request.key) ~metric ~trace ~tier ~report ~flight =
  Trace.finish trace;
  let ms = Trace.elapsed_ms trace in
  let cached = match tier with Tier_solve -> false | _ -> true in
  (* Store traffic first, on the store's own lock — admission of a fresh
     verdict, or the memory-hit note that completes the store's
     per-session tier counters. *)
  let admitted =
    match (t.store, tier) with
    | Some store, Tier_solve when cacheable report ->
      Store.admit store ~kind:key.kind ~scope:key.scope
        ~key:(Cache_key.hex key.digest) ~canon:key.canon report
    | Some store, Tier_memory ->
      Store.note_memory_hit store;
      false
    | _ -> false
  in
  Mutex.protect t.lock (fun () ->
      Metrics.record ~kind:metric t.meters ~verdict:report.Sat.verdict
        ~cached ~ms ~stats:report.Sat.stats;
      (match tier with
      | Tier_disk verify_ms -> Metrics.record_disk_hit t.meters ~verify_ms
      | _ -> ());
      if admitted then Metrics.record_store_append t.meters;
      if flight then Metrics.record_single_flight t.meters;
      if (not cached) && is_crash report then Metrics.record_crash t.meters;
      Metrics.record_trace t.meters trace);
  { id; report; cached; tier = tier_name tier; ms; key = key.digest; trace }

(* Probe the disk tier for [key]. Only called after the memory tier
   missed; a record failing verify-on-load self-evicts inside the store
   and is purged from the memory tier too (defensive — a memory entry
   can only exist after a verified load or a fresh solve). *)
let store_probe t ~trace (key : Request.key) =
  match t.store with
  | None -> None
  | Some store -> (
    Trace.mark trace "store_probe";
    match
      Store.probe store ~kind:key.kind ~scope:key.scope
        ~key:(Cache_key.hex key.digest) ~canon:key.canon
    with
    | Store.Miss -> None
    | Store.Hit (report, verify_ms) -> Some (report, verify_ms)
    | Store.Evicted (_, verify_ms) ->
      Mutex.protect t.lock (fun () ->
          ignore (Lru.remove t.cache key.digest);
          Metrics.record_store_self_eviction t.meters ~verify_ms);
      None)

(* The shared serving path of every solver-backed body: the tiering,
   single-flight and deadline machinery are verb-independent. *)
let solve_keyed t ~trace ~id ~timeout_ms (body : Request.body) =
  Trace.mark trace "canonicalize";
  let key = Request.key ~config_fingerprint:t.fingerprint body in
  let metric =
    match body with
    | Contains _ | Equiv _ -> `Contains
    | Doctype _ -> `Doctype
    | Sat _ | Eval _ -> `Sat
  in
  let finish = finish t ~id ~key ~metric ~trace in
  Flight.run t.flight ~trace key.digest
    ~hit:(fun report -> finish ~tier:Tier_memory ~report ~flight:false)
    ~join:(fun report ->
      (* a crashed or deadline-bound leader's verdict is not shared: our
         own admission-anchored deadline still applies, so a request
         whose budget died waiting answers [Unknown "deadline
         exceeded"] immediately *)
      if cacheable report then
        Some (finish ~tier:Tier_memory ~report ~flight:true)
      else None)
    ~lead:(fun ticket ->
      (* The memory tier missed: try the disk tier before spawning a
         solve. A verified disk hit lands the flight like a solve would
         — waiters join it, and it is promoted to the memory tier. *)
      match store_probe t ~trace key with
      | Some (report, verify_ms) ->
        Flight.publish t.flight ticket (Some report);
        finish ~tier:(Tier_disk verify_ms) ~report ~flight:false
      | None ->
        let report =
          solve_uncached t ~trace ~deadline:(deadline_of trace timeout_ms) ~id
            body key.canon
        in
        Flight.publish t.flight ticket (Some report);
        finish ~tier:Tier_solve ~report ~flight:false)

let handle ?trace t ({ id; timeout_ms; body } : Request.t) =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  match body with
  | Sat _ -> Sat_answer (solve_keyed t ~trace ~id ~timeout_ms body)
  | Contains _ -> Contains_answer (solve_keyed t ~trace ~id ~timeout_ms body)
  | Doctype _ -> Doctype_answer (solve_keyed t ~trace ~id ~timeout_ms body)
  | Equiv { phi; psi } ->
    (* The forward direction runs on the caller's trace (which carries
       the wire-parse span and anchors the deadline at admission); the
       backward direction is its own contains request on a fresh trace,
       budgeted with whatever remains of the equiv deadline. Both go
       through the contains cache, so a direction asked directly and as
       half of an equiv share one entry. *)
    let fwd, bwd = Request.directions phi psi in
    let forward = solve_keyed t ~trace ~id ~timeout_ms fwd in
    let backward =
      let tr2 = Trace.create () in
      let remaining =
        Option.map
          (fun d -> Float.max 0. (d -. Trace.admitted tr2))
          (deadline_of trace timeout_ms)
      in
      solve_keyed t ~trace:tr2 ~id ~timeout_ms:remaining bwd
    in
    Mutex.protect t.lock (fun () -> Metrics.record_equiv t.meters);
    Equiv_answer
      { forward; backward; ms = Trace.now_ms () -. Trace.admitted trace }
  | Eval { query; source; limit } ->
    Eval_answer
      (Eval_verb.eval t.eval ~trace ~id ~deadline:(deadline_of trace timeout_ms)
         ~query ~source ~limit)

let contains_answer (resp : response) =
  Containment.answer_of_verdict resp.report.Sat.verdict

(* --- NDJSON wire format (versioned; see docs/protocol.md) --- *)

let protocol_version = Request.protocol_version

let verdict_name = function
  | Sat.Sat _ -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unsat_bounded _ -> "unsat_bounded"
  | Sat.Unknown _ -> "unknown"

let round_ms ms = Json.Num (Float.round (ms *. 1000.) /. 1000.)

let version_field = ("v", Json.Num (float_of_int protocol_version))

(* [("v", 1); ("id", id); ("kind", kind)] ahead of [fields]; [kind] is
   omitted on sat lines. *)
let envelope ?kind id fields =
  version_field
  :: ("id", Json.Str id)
  :: (match kind with Some k -> ("kind", Json.Str k) :: fields | None -> fields)

let trace_fields trace tr = if trace then [ ("trace", Trace.to_json tr) ] else []

let verified_fields (report : Sat.report) =
  match report.witness_verified with
  | Some ok -> [ ("verified", Json.Bool ok) ]
  | None -> []

let robustness_fields_of resp =
  if is_crash resp.report then
    (* A poisoned request: same structured ["error"] field the serve
       loop uses for unparsable lines, so clients have one place to
       look. *)
    match resp.report.Sat.verdict with
    | Sat.Unknown why -> [ ("error", Json.Str why) ]
    | _ -> []
  else []

(* The sat and sat_under_doctype line. Doctype witnesses travel in the
   parseable compact syntax, unlike sat witnesses, whose paper notation
   is pinned by existing clients. *)
let verdict_line ?kind ~witness ~trace ~extra resp =
  let report = resp.report in
  let stat n = Json.Num (float_of_int n) in
  let verdict_fields =
    match report.Sat.verdict with
    | Sat.Sat w -> ("witness", Json.Str (witness w)) :: verified_fields report
    | Sat.Unsat -> []
    | Sat.Unsat_bounded why | Sat.Unknown why -> [ ("reason", Json.Str why) ]
  in
  Json.to_string
    (Json.Obj
       (envelope ?kind resp.id
          (("verdict", Json.Str (verdict_name report.Sat.verdict))
          :: ("cached", Json.Bool resp.cached)
          :: ("tier", Json.Str resp.tier)
          :: ("ms", round_ms resp.ms)
          :: ("fragment", Json.Str (Fragment.name report.Sat.fragment))
          :: ("states", stat report.Sat.stats.Emptiness.n_states)
          :: ("transitions", stat report.Sat.stats.Emptiness.n_transitions)
          :: (verdict_fields @ robustness_fields_of resp
             @ trace_fields trace resp.trace @ extra))))

let answer_name = function
  | Containment.Holds -> "holds"
  | Containment.Holds_bounded _ -> "holds_bounded"
  | Containment.Fails _ -> "fails"
  | Containment.Unknown _ -> "unknown"

(* One containment direction: a contains line is the envelope plus
   exactly this object, and an equiv line nests one per direction.
   Counterexamples travel in the parseable
   [Data_tree.to_compact_string] syntax (not the paper pp notation) so
   a client — or the CI smoke — can replay them through [xpds check]
   and [Data_tree.of_string]. *)
let direction_fields ~trace (resp : response) =
  let answer = contains_answer resp in
  (("answer", Json.Str (answer_name answer))
  :: (match answer with
     | Containment.Fails w ->
       ("counterexample", Json.Str (Data_tree.to_compact_string w))
       :: verified_fields resp.report
     | Containment.Holds -> []
     | Containment.Holds_bounded why | Containment.Unknown why ->
       [ ("reason", Json.Str why) ]))
  @ [ ("cached", Json.Bool resp.cached);
      ("tier", Json.Str resp.tier);
      ("ms", round_ms resp.ms)
    ]
  @ robustness_fields_of resp @ trace_fields trace resp.trace

let holds r =
  match contains_answer r with
  | Containment.Holds | Containment.Holds_bounded _ -> Some true
  | Containment.Fails _ -> Some false
  | Containment.Unknown _ -> None

(* One failing direction settles non-equivalence even when the other
   is unknown; [None] (no "equivalent" field) while a needed direction
   is still unknown. *)
let equivalent ~forward ~backward =
  match (holds forward, holds backward) with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

let eval_line ~trace (resp : Eval_verb.response) =
  let body =
    match resp.result with
    | Ok r ->
      [ ("root", Json.Bool r.root);
        ("count", Json.Num (float_of_int r.count));
        ("nodes", Json.Raw r.positions)
      ]
      @ (if r.truncated then [ ("nodes_truncated", Json.Bool true) ] else [])
      @ [ ("doc_nodes", Json.Num (float_of_int r.doc_nodes));
          ("node_evals", Json.Num (float_of_int r.node_evals))
        ]
    | Error e -> [ ("error", Json.Str e) ]
  in
  Json.to_string
    (Json.Obj
       (envelope ~kind:"eval" resp.id
          (body
          @ ("cached", Json.Bool resp.cached)
            :: ("ms", round_ms resp.ms)
            :: trace_fields trace resp.trace)))

let answer_to_json ?(trace = false) ?(extra_of = fun _ -> []) = function
  | Sat_answer r ->
    verdict_line ~witness:Data_tree.to_string ~trace ~extra:(extra_of r) r
  | Doctype_answer r ->
    verdict_line ~kind:"sat_under_doctype" ~witness:Data_tree.to_compact_string
      ~trace ~extra:[] r
  | Contains_answer r ->
    Json.to_string (Json.Obj (envelope ~kind:"contains" r.id (direction_fields ~trace r)))
  | Equiv_answer { forward; backward; ms } ->
    let direction r = Json.Obj (direction_fields ~trace r) in
    Json.to_string
      (Json.Obj
         (envelope ~kind:"equiv" forward.id
            ((match equivalent ~forward ~backward with
             | Some b -> [ ("equivalent", Json.Bool b) ]
             | None -> [])
            @ [ ("forward", direction forward);
                ("backward", direction backward);
                ("ms", round_ms ms)
              ])))
  | Eval_answer r -> eval_line ~trace r

let error_to_json ?id msg =
  Json.to_string
    (Json.Obj
       (version_field
       :: (match id with Some id -> [ ("id", Json.Str id) ] | None -> [])
       @ [ ("error", Json.Str msg) ]))

(* One line in, one line out, and no exception ever escapes: a served
   socket must survive arbitrary garbage. *)
let handle_line ?default_timeout_ms ?(trace = false) ?extra_of t line =
  let tr = Trace.create () in
  Trace.mark tr "parse";
  match Request.of_line line with
  | Error e ->
    (* A schema violation on an otherwise well-formed JSON line still
       names the request it rejects: recover the id so a pipelined
       client can match the error to its request. *)
    error_to_json ?id:(Request.id_of_line line) e
  | exception e ->
    (* The parser reports syntax errors as [Error], but a hostile line
       can still blow a recursion limit (deeply nested input). *)
    error_to_json ?id:(Request.id_of_line line)
      (Printf.sprintf "bad request: %s" (Printexc.to_string e))
  | Ok r -> (
    let r =
      match (r.timeout_ms, default_timeout_ms) with
      | None, Some _ -> { r with timeout_ms = default_timeout_ms }
      | _ -> r
    in
    match answer_to_json ~trace ?extra_of (handle ~trace:tr t r) with
    | line -> line
    | exception e ->
      error_to_json ~id:r.id
        (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
