module Sat = Xpds_decision.Sat
module Emptiness = Xpds_decision.Emptiness
module Ast = Xpds_xpath.Ast
module Parser = Xpds_xpath.Parser
module Pp = Xpds_xpath.Pp
module Fragment = Xpds_xpath.Fragment
module Data_tree = Xpds_datatree.Data_tree
module Path_ = Xpds_datatree.Path
module Xml_doc = Xpds_datatree.Xml_doc
module Eval_doc = Xpds_eval.Doc
module Eval = Xpds_eval.Eval
module Store = Xpds_store.Store
module Doctype = Xpds_automata.Doctype
module Containment = Xpds_decision.Containment

(* The one construction seam: a plain record + with_* combinators, in
   the style of Sat.Options.t. Every construction site (bin, bench,
   shard workers, tests) builds a Config.t and calls [create]. *)
module Config = struct
  type solver = {
    width : int;
    t0 : int option;
    dup_cap : int option;
    merge_budget : int option;
    max_states : int;
    max_transitions : int;
    verify : bool;
    certificate : bool;
    retry_degraded : bool;
    prune : bool;
        (** subsumption pruning ({!Xpds_decision.Sat.Options.prune});
            NOT part of the cache fingerprint — on
            searches that finish within budget the verdict is
            identical, and both modes answer honestly on budget-capped
            runs, so entries are interchangeable *)
  }

  type t = {
    solver : solver;
    cache_capacity : int;
    max_doc_nodes : int;
    eval_cache_capacity : int;
    doc_cache_capacity : int;
  }

  let default_solver =
    {
      width = 3;
      t0 = Some 6;
      dup_cap = Some 2;
      merge_budget = Some 5;
      max_states = Emptiness.default_config.Emptiness.max_states;
      max_transitions = Emptiness.default_config.Emptiness.max_transitions;
      verify = true;
      certificate = false;
      retry_degraded = false;
      prune = Sat.Options.default.Sat.Options.prune;
    }

  let default =
    {
      solver = default_solver;
      cache_capacity = 4096;
      max_doc_nodes = 200_000;
      eval_cache_capacity = 4096;
      doc_cache_capacity = 64;
    }

  let with_solver solver t = { t with solver }
  let with_width width t = { t with solver = { t.solver with width } }
  let with_t0 t0 t = { t with solver = { t.solver with t0 } }
  let with_dup_cap dup_cap t = { t with solver = { t.solver with dup_cap } }

  let with_merge_budget merge_budget t =
    { t with solver = { t.solver with merge_budget } }

  let with_max_states max_states t =
    { t with solver = { t.solver with max_states } }

  let with_max_transitions max_transitions t =
    { t with solver = { t.solver with max_transitions } }

  let with_verify verify t = { t with solver = { t.solver with verify } }

  let with_certificate certificate t =
    { t with solver = { t.solver with certificate } }

  let with_retry_degraded retry_degraded t =
    { t with solver = { t.solver with retry_degraded } }

  let with_prune prune t = { t with solver = { t.solver with prune } }
  let with_cache_capacity cache_capacity t = { t with cache_capacity }
  let with_max_doc_nodes max_doc_nodes t = { t with max_doc_nodes }

  let with_eval_cache_capacity eval_cache_capacity t =
    { t with eval_cache_capacity }

  let with_doc_cache_capacity doc_cache_capacity t =
    { t with doc_cache_capacity }

  let fingerprint (sc : solver) =
    let opt = function None -> "-" | Some i -> string_of_int i in
    (* [certificate] is part of the key: certificate mode disables the
       height cap (the fixpoint must genuinely saturate), which can
       change the outcome class of a run. [retry_degraded] is too: a
       degraded retry can turn a budget [Unknown] into [Unsat_bounded].
       [prune] is deliberately NOT: on in-budget searches pruning
       only changes how the fixpoint is explored, never the verdict,
       and budget-capped answers are honest ([Unknown]/[Unsat_bounded])
       in both modes. *)
    Printf.sprintf "w%d;t0=%s;dup=%s;mb=%s;ms=%d;mt=%d;v=%b;c=%b;rd=%b"
      sc.width (opt sc.t0) (opt sc.dup_cap) (opt sc.merge_budget)
      sc.max_states sc.max_transitions sc.verify sc.certificate
      sc.retry_degraded
end

type request = {
  id : string;
  formula : Ast.node;
  timeout_ms : float option;
}

type response = {
  id : string;
  report : Sat.report;
  cached : bool;
  degraded : bool;
  tier : string;  (** "memory" | "disk" | "solve" *)
  ms : float;
  key : Cache_key.t;
  trace : Trace.t;
}

(* --- the containment verbs (paper §4.1) --- *)

type contains_request = {
  ct_id : string;
  phi : Ast.node;
  psi : Ast.node;
  ct_timeout_ms : float option;
}

type equiv_request = {
  eq_id : string;
  eq_phi : Ast.node;
  eq_psi : Ast.node;
  eq_timeout_ms : float option;
}

type equiv_response = {
  eq_rid : string;
  forward : response;  (** ϕ ⊑ ψ *)
  backward : response;  (** ψ ⊑ ϕ *)
  eq_ms : float;
}

type doctype_request = {
  dt_id : string;
  dt_formula : Ast.node;
  dt_rules : Doctype.t;
  dt_timeout_ms : float option;
}

(* Which tier answered: the in-process caches (including flight joins
   and in-batch duplicates), the persistent store (carrying its
   verify-on-load latency), or a fresh solve. *)
type tier = Tier_memory | Tier_disk of float | Tier_solve

let tier_name = function
  | Tier_memory -> "memory"
  | Tier_disk _ -> "disk"
  | Tier_solve -> "solve"

(* One in-flight computation per cache key: the first missing request
   becomes the leader and solves; concurrent requests on the same key
   wait on [cond] instead of burning a second ExpTime fixpoint. *)
type flight = {
  mutable outcome : (Sat.report * bool) option;
      (** [(report, degraded)]; [None] after landing only if the leader
          died before producing a report *)
  mutable landed : bool;
  mutable waiters : int;
  cond : Condition.t;
}

(* --- the eval verb: bulk evaluation over array-encoded documents --- *)

type eval_source =
  | Doc_named of string  (** a document registered with [register_doc] *)
  | Doc_xml of string  (** inline XML source *)
  | Doc_tree of string  (** inline [Data_tree.of_string] syntax *)

type eval_request = {
  ev_id : string;
  query : Ast.node;
  source : eval_source;
  ev_timeout_ms : float option;
  limit : int option;  (** positions returned on the wire; default 100 *)
}

type eval_result = {
  root : bool;
  count : int;
  positions : string;
      (** the first [limit] sat positions, preorder, as the JSON array
          text of the wire's ["nodes"] field *)
  truncated : bool;
  doc_nodes : int;
  node_evals : int;  (** fresh work this evaluation added to the memo *)
}

type eval_response = {
  ev_rid : string;
  result : (eval_result, string) result;
  ev_cached : bool;
  ev_ms : float;
  ev_trace : Trace.t;
}

(* One flattened document plus its shared evaluator. The evaluator's
   memo is the cross-request batching win (formula batches over one
   document pay for each distinct subformula once), so it lives with
   the document — guarded by its own lock, with the current request's
   deadline threaded through a ref the [should_stop] hook reads. *)
type doc_entry = {
  e_doc : Eval_doc.t;
  e_digest : string;  (** document identity for eval result keys *)
  e_eval : Eval.t;
  e_lock : Mutex.t;
  e_deadline : float option ref;
}

type eval_flight = {
  mutable ev_outcome : eval_result option;
      (** [None] after landing when the leader erred or timed out *)
  mutable ev_landed : bool;
  mutable ev_waiters : int;
  ev_cond : Condition.t;
}

type t = {
  cfg : Config.t;
  fingerprint : string;
  store : Store.t option;
      (** the disk tier under the LRU; guarded by its own mutex, so
          probes and admissions happen outside the service lock *)
  cache : Sat.report Lru.t;
  meters : Metrics.t;
  lock : Mutex.t;
  inflight : (Cache_key.t, flight) Hashtbl.t;
  chaos : (string -> unit) option Atomic.t;
  docs : (string, doc_entry) Hashtbl.t;  (** named registry *)
  inline_docs : doc_entry Lru.t;  (** inline sources, by source digest *)
  eval_cache : eval_result Lru.t;
  eval_inflight : (string, eval_flight) Hashtbl.t;
}

let create ?store (config : Config.t) =
  {
    cfg = config;
    fingerprint = Config.fingerprint config.solver;
    store;
    cache = Lru.create ~capacity:config.cache_capacity;
    meters = Metrics.create ();
    lock = Mutex.create ();
    inflight = Hashtbl.create 64;
    chaos = Atomic.make None;
    docs = Hashtbl.create 16;
    inline_docs = Lru.create ~capacity:config.doc_cache_capacity;
    eval_cache = Lru.create ~capacity:config.eval_cache_capacity;
    eval_inflight = Hashtbl.create 64;
  }

let config t = t.cfg
let metrics t = Mutex.protect t.lock (fun () -> Metrics.snapshot t.meters)

let record_cert t ~ok ~ms =
  Mutex.protect t.lock (fun () -> Metrics.record_cert t.meters ~ok ~ms)
let reset_metrics t = Mutex.protect t.lock (fun () -> Metrics.reset t.meters)
let cache_length t = Mutex.protect t.lock (fun () -> Lru.length t.cache)

let inflight_waiters t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ fl acc -> acc + fl.waiters) t.inflight 0)

module Chaos = struct
  let set t f = Atomic.set t.chaos f
end

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

let zero_stats =
  {
    Emptiness.n_states = 0;
    n_transitions = 0;
    n_mergings = 0;
    max_height_reached = 0;
    prune = Emptiness.no_prune_stats;
    n_replayed = 0;
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

(* The degraded bounds of the graceful-degradation retry: a strictly
   smaller search space, so a formula that exhausted the state budget
   under the primary bounds has a chance to saturate (yielding an honest
   [Unsat_bounded]/[Sat]) instead of answering a bare [Unknown]. *)
let degrade (sc : Config.solver) =
  {
    sc with
    width = max 1 (sc.width - 1);
    t0 = Some (match sc.t0 with Some t -> max 2 (t / 2) | None -> 3);
    dup_cap = Some 1;
    merge_budget = Some 2;
  }

(* What the solving domain actually computes under the shared serving
   machinery: plain satisfiability (also the ϕ∧¬ψ query of the
   containment verbs, which differ only in cache-key kind and response
   rendering) or doctype-constrained satisfiability. *)
type task = Task_sat | Task_doctype of Doctype.t

(* The deadline is an absolute [Trace.now_ms] timestamp anchored at
   the request's admission, so time spent queued counts against the
   budget and a batch item can never exceed its caller-visible deadline.
   Never raises: a crashing solver (or chaos hook) is folded into a
   [crash:] error report. *)
let solve_uncached t ~trace ~deadline ~task ~id canon =
  Trace.mark trace "solve";
  let sc = t.cfg.solver in
  let expired () =
    match deadline with
    | Some d -> Trace.now_ms () >= d
    | None -> false
  in
  let run (sc : Config.solver) =
    let should_stop =
      Option.map (fun d () -> Trace.now_ms () > d) deadline
    in
    let options =
      {
        Sat.Options.default with
        Sat.Options.width = sc.width;
        t0 = sc.t0;
        dup_cap = sc.dup_cap;
        merge_budget = sc.merge_budget;
        max_states = sc.max_states;
        max_transitions = sc.max_transitions;
        prune = sc.prune;
        should_stop;
        on_phase = Trace.mark trace;
        verify = sc.verify;
        certificate = sc.certificate;
      }
    in
    match task with
    | Task_sat -> Sat.decide ~options canon
    | Task_doctype doctype ->
      Sat.decide_under_doctype ~options ~doctype canon
  in
  let crash e =
    synthetic_report ~algorithm:"aborted: the solver raised" canon
      (crash_prefix ^ Printexc.to_string e)
  in
  let report, degraded =
    if expired () then
      (* Admission-anchored budget already gone (e.g. timeout_ms = 0, or
         the queue wait consumed it): answer deterministically without
         starting a fixpoint. *)
      ( synthetic_report ~algorithm:"rejected: deadline at admission"
          canon Emptiness.deadline_exceeded,
        false )
    else
      match
        (match Atomic.get t.chaos with Some f -> f id | None -> ());
        run sc
      with
      | exception e -> (crash e, false)
      | report -> (
        match report.Sat.verdict with
        | Sat.Unknown why
          when sc.retry_degraded && why <> Emptiness.deadline_exceeded ->
          (* Budget exhausted, not a deadline: one retry under degraded
             bounds (still subject to the same absolute deadline). *)
          Trace.mark trace "retry_degraded";
          (match run (degrade sc) with
          | exception e -> (crash e, true)
          | report' -> (report', true))
        | _ -> (report, false))
  in
  Trace.finish trace;
  (report, degraded)

let deadline_of trace timeout_ms =
  Option.map (fun ms -> Trace.admitted trace +. ms) timeout_ms

let finish t ~id ~kind ~scope ~metric ~key ~canon ~trace ~tier ~report
    ~degraded ~flight =
  Trace.finish trace;
  let ms = Trace.elapsed_ms trace in
  let cached = match tier with Tier_solve -> false | _ -> true in
  (* Store traffic first, on the store's own lock — admission of a fresh
     verdict, or the memory-hit note that completes the store's
     per-session tier counters. *)
  let admitted =
    match (t.store, tier) with
    | Some store, Tier_solve when cacheable report ->
      Store.admit store ~kind ~scope ~key:(Cache_key.hex key) ~canon
        report
    | Some store, Tier_memory ->
      Store.note_memory_hit store;
      false
    | _ -> false
  in
  Mutex.protect t.lock (fun () ->
      if (not cached) && cacheable report then Lru.add t.cache key report;
      Metrics.record ~kind:metric t.meters ~verdict:report.Sat.verdict
        ~cached ~ms ~stats:report.Sat.stats;
      (match tier with
      | Tier_disk verify_ms -> Metrics.record_disk_hit t.meters ~verify_ms
      | _ -> ());
      if admitted then Metrics.record_store_append t.meters;
      if flight then Metrics.record_single_flight t.meters;
      if (not cached) && degraded then Metrics.record_degraded t.meters;
      if (not cached) && is_crash report then Metrics.record_crash t.meters;
      Metrics.record_trace t.meters trace);
  { id; report; cached; degraded; tier = tier_name tier; ms; key; trace }

(* Probe the disk tier for [key]. Only called after the memory tier
   missed; a record failing verify-on-load self-evicts inside the store
   and is purged from the memory tier too (defensive — a memory entry
   can only exist after a verified load or a fresh solve). *)
let store_probe t ~trace ~kind ~scope ~key ~canon =
  match t.store with
  | None -> None
  | Some store -> (
    Trace.mark trace "store_probe";
    match Store.probe store ~kind ~scope ~key:(Cache_key.hex key) ~canon with
    | Store.Miss -> None
    | Store.Hit (report, verify_ms) -> Some (report, verify_ms)
    | Store.Evicted (_, verify_ms) ->
      Mutex.protect t.lock (fun () ->
          ignore (Lru.remove t.cache key);
          Metrics.record_store_self_eviction t.meters ~verify_ms);
      None)

(* The shared serving loop of every solver-backed verb. [kind] and
   [scope] tag the cache key, the store record and the metrics bucket;
   [task] is what a miss actually computes. The tiering, single-flight
   and deadline machinery are verb-independent. *)
let solve_keyed ?trace t ~kind ~scope ~metric ~task ~id ~timeout_ms formula
    =
  let tr = match trace with Some tr -> tr | None -> Trace.create () in
  Trace.mark tr "canonicalize";
  let canon, key =
    Cache_key.make ~kind ~salt:scope ~config_fingerprint:t.fingerprint
      formula
  in
  let deadline = deadline_of tr timeout_ms in
  let rec attempt () =
    Trace.mark tr "cache_probe";
    let decision =
      Mutex.protect t.lock (fun () ->
          match Lru.find t.cache key with
          | Some report -> `Hit report
          | None -> (
            match Hashtbl.find_opt t.inflight key with
            | Some fl ->
              fl.waiters <- fl.waiters + 1;
              `Join fl
            | None ->
              let fl =
                { outcome = None;
                  landed = false;
                  waiters = 0;
                  cond = Condition.create ()
                }
              in
              Hashtbl.replace t.inflight key fl;
              `Lead fl))
    in
    match decision with
    | `Hit report ->
      finish t ~id ~kind ~scope ~metric ~key ~canon ~trace:tr ~report
        ~tier:Tier_memory ~degraded:false ~flight:false
    | `Join fl -> (
      Trace.mark tr "flight_wait";
      let outcome =
        Mutex.protect t.lock (fun () ->
            while not fl.landed do
              Condition.wait fl.cond t.lock
            done;
            fl.waiters <- fl.waiters - 1;
            fl.outcome)
      in
      match outcome with
      | Some (report, degraded) when cacheable report ->
        finish t ~id ~kind ~scope ~metric ~key ~canon ~trace:tr ~report
          ~tier:Tier_memory ~degraded ~flight:true
      | _ ->
        (* The leader crashed or produced a time-dependent verdict
           (deadline) that must not be shared: try again ourselves —
           our own admission-anchored deadline still applies, so a
           request whose budget died waiting answers [Unknown
           "deadline exceeded"] immediately. *)
        attempt ())
    | `Lead fl -> (
      let publish ?admit_report outcome =
        Mutex.protect t.lock (fun () ->
            (match admit_report with
            | Some report -> Lru.add t.cache key report
            | None -> ());
            fl.outcome <- outcome;
            fl.landed <- true;
            Hashtbl.remove t.inflight key;
            Condition.broadcast fl.cond)
      in
      (* The memory tier missed: try the disk tier before spawning a
         solve. A verified disk hit lands the flight like a solve would
         — waiters join it, and it is promoted to the memory tier. *)
      match store_probe t ~trace:tr ~kind ~scope ~key ~canon with
      | Some (report, verify_ms) ->
        publish ~admit_report:report (Some (report, false));
        finish t ~id ~kind ~scope ~metric ~key ~canon ~trace:tr ~report
          ~tier:(Tier_disk verify_ms) ~degraded:false ~flight:false
      | None -> (
        match solve_uncached t ~trace:tr ~deadline ~task ~id canon with
        | report, degraded ->
          publish (Some (report, degraded));
          finish t ~id ~kind ~scope ~metric ~key ~canon ~trace:tr ~report
            ~tier:Tier_solve ~degraded ~flight:false
        | exception e ->
          (* [solve_uncached] never raises; this is pure paranoia so a
             bug there can never strand the waiters. *)
          publish None;
          raise e))
  in
  attempt ()

let solve ?trace t (r : request) =
  solve_keyed ?trace t ~kind:"sat" ~scope:"" ~metric:`Sat ~task:Task_sat
    ~id:r.id ~timeout_ms:r.timeout_ms r.formula

let solve_batch t requests =
  (* Admission: every request's trace — and therefore its deadline — is
     anchored now, before any item is solved. The open "queue" span is
     closed when the item's turn comes. *)
  let keyed =
    List.map
      (fun (r : request) ->
        let tr = Trace.create () in
        Trace.mark tr "canonicalize";
        let canon, key =
          Cache_key.make ~config_fingerprint:t.fingerprint r.formula
        in
        Trace.mark tr "cache_probe";
        let in_cache =
          Mutex.protect t.lock (fun () -> Lru.mem t.cache key)
        in
        (* Memory miss: probe the disk tier before admitting the item as
           work. A verified disk hit is promoted to the memory tier
           immediately, so in-batch duplicates of its key probe as
           memory hits. *)
        let hint =
          if in_cache then `Mem
          else
            match store_probe t ~trace:tr ~kind:"sat" ~scope:"" ~key ~canon with
            | Some (report, verify_ms) ->
              Mutex.protect t.lock (fun () -> Lru.add t.cache key report);
              `Disk (report, verify_ms)
            | None -> `Miss
        in
        Trace.mark tr "queue";
        (r, canon, key, tr, hint))
      requests
  in
  (* Solve in request order. The first miss of each key solves it; its
     in-batch duplicates reuse that report and are reported [cached].
     [solve_uncached] folds a raising solver into an error report, so a
     poisoned item degrades alone and the rest of the batch completes. *)
  let solved : (Cache_key.t, Sat.report * bool) Hashtbl.t =
    Hashtbl.create 64
  in
  let finish_sat (r : request) =
    finish t ~id:r.id ~kind:"sat" ~scope:"" ~metric:`Sat
  in
  List.map
    (fun ((r : request), canon, key, tr, hint) ->
      let memory report ~degraded =
        finish_sat r ~key ~canon ~trace:tr ~report ~tier:Tier_memory
          ~degraded ~flight:false
      in
      let solve () =
        let report, degraded =
          solve_uncached t ~trace:tr
            ~deadline:(deadline_of tr r.timeout_ms) ~task:Task_sat
            ~id:r.id canon
        in
        Hashtbl.add solved key (report, degraded);
        finish_sat r ~key ~canon ~trace:tr ~report ~tier:Tier_solve
          ~degraded ~flight:false
      in
      match (Hashtbl.find_opt solved key, hint) with
      | Some (report, degraded), _ -> memory report ~degraded
      | None, `Disk (report, verify_ms) ->
        finish_sat r ~key ~canon ~trace:tr ~report
          ~tier:(Tier_disk verify_ms) ~degraded:false ~flight:false
      | None, `Miss -> solve ()
      | None, `Mem -> (
        match Mutex.protect t.lock (fun () -> Lru.find t.cache key) with
        | Some report -> memory report ~degraded:false
        | None ->
          (* Was cached at admission but evicted since: solve here. *)
          solve ()))
    keyed

(* --- the containment verbs: ϕ ⊑ ψ as UNSAT(ϕ ∧ ¬ψ), paper §4.1 --- *)

let solve_contains ?trace t (r : contains_request) =
  solve_keyed ?trace t ~kind:"contains" ~scope:"" ~metric:`Contains
    ~task:Task_sat ~id:r.ct_id ~timeout_ms:r.ct_timeout_ms
    (Containment.query r.phi r.psi)

let contains_answer (resp : response) =
  Containment.answer_of_verdict resp.report.Sat.verdict

let solve_equiv ?trace t (r : equiv_request) =
  let tr = match trace with Some tr -> tr | None -> Trace.create () in
  let deadline = deadline_of tr r.eq_timeout_ms in
  (* The forward direction runs on the caller's trace (which carries the
     wire-parse span and anchors the deadline at admission); the
     backward direction is its own contains request on a fresh trace,
     budgeted with whatever remains of the equiv deadline. Both go
     through the contains cache, so a direction asked directly and as
     half of an equiv share one entry. *)
  let forward =
    solve_contains ~trace:tr t
      { ct_id = r.eq_id;
        phi = r.eq_phi;
        psi = r.eq_psi;
        ct_timeout_ms = r.eq_timeout_ms
      }
  in
  let backward =
    let tr2 = Trace.create () in
    let remaining =
      Option.map (fun d -> Float.max 0. (d -. Trace.admitted tr2)) deadline
    in
    solve_contains ~trace:tr2 t
      { ct_id = r.eq_id;
        phi = r.eq_psi;
        psi = r.eq_phi;
        ct_timeout_ms = remaining
      }
  in
  Mutex.protect t.lock (fun () -> Metrics.record_equiv t.meters);
  { eq_rid = r.eq_id;
    forward;
    backward;
    eq_ms = Trace.now_ms () -. Trace.admitted tr
  }

let solve_sat_under_doctype ?trace t (r : doctype_request) =
  solve_keyed ?trace t ~kind:"sat_under_doctype"
    ~scope:(Doctype.canonical_string r.dt_rules) ~metric:`Doctype
    ~task:(Task_doctype r.dt_rules) ~id:r.dt_id
    ~timeout_ms:r.dt_timeout_ms r.dt_formula

(* --- the eval verb: registry, result cache, single flight --- *)

let oversized_doc_error ~n ~max_doc_nodes =
  Printf.sprintf "document too large: %d nodes (max_doc_nodes = %d)" n
    max_doc_nodes

(* The document's identity for eval result keys: a content digest, so
   the same document reaches the same cache entries whether it arrived
   inline or via the registry, and re-registering a name with different
   content can never serve stale results. [Doc.t] is all int arrays, so
   marshalling is a stable byte rendering. *)
let doc_digest (doc : Eval_doc.t) = Digest.string (Marshal.to_string doc [])

let entry_of_doc (doc : Eval_doc.t) =
  let deadline = ref None in
  let should_stop () =
    match !deadline with Some d -> Trace.now_ms () > d | None -> false
  in
  {
    e_doc = doc;
    e_digest = doc_digest doc;
    e_eval = Eval.create ~should_stop doc;
    e_lock = Mutex.create ();
    e_deadline = deadline;
  }

let register_doc t ~name doc =
  let n = doc.Eval_doc.n in
  if n > t.cfg.max_doc_nodes then
    Error (oversized_doc_error ~n ~max_doc_nodes:t.cfg.max_doc_nodes)
  else begin
    let entry = entry_of_doc doc in
    Mutex.protect t.lock (fun () ->
        Metrics.record_doc_built t.meters;
        Hashtbl.replace t.docs name entry);
    Ok ()
  end

let registered_docs t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun name e acc -> (name, e.e_doc.Eval_doc.n) :: acc)
        t.docs [])
  |> List.sort compare

let build_doc = function
  | Doc_named _ -> invalid_arg "build_doc: named source"
  | Doc_xml text -> (
    match Xml_doc.parse text with
    | Error e -> Error (Printf.sprintf "bad xml: %s" e)
    | Ok xml -> Ok (Eval_doc.of_xml xml))
  | Doc_tree text -> (
    match Data_tree.of_string text with
    | Error e -> Error (Printf.sprintf "bad tree: %s" e)
    | Ok tree -> Ok (Eval_doc.of_tree tree))

(* Named sources hit the registry; inline sources are parsed and
   flattened at most once per source text (LRU by source digest), so a
   client replaying queries against the same inline document reuses the
   entry — and with it the evaluator's cross-request memo. *)
let resolve_entry t source =
  match source with
  | Doc_named name -> (
    match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.docs name) with
    | Some e -> Ok e
    | None ->
      Error
        (Printf.sprintf
           "unknown document %S (serve it inline via \"xml\"/\"tree\", \
            or register it at startup)"
           name))
  | Doc_xml text | Doc_tree text -> (
    let tag = match source with Doc_xml _ -> "xml:" | _ -> "tree:" in
    let skey = Digest.string (tag ^ text) in
    match Mutex.protect t.lock (fun () -> Lru.find t.inline_docs skey) with
    | Some e -> Ok e
    | None -> (
      match build_doc source with
      | Error _ as e -> e
      | Ok doc when doc.Eval_doc.n > t.cfg.max_doc_nodes ->
        Error
          (oversized_doc_error ~n:doc.Eval_doc.n
             ~max_doc_nodes:t.cfg.max_doc_nodes)
      | Ok doc ->
        let entry = entry_of_doc doc in
        Mutex.protect t.lock (fun () ->
            Metrics.record_doc_built t.meters;
            Lru.add t.inline_docs skey entry);
        Ok entry))

let default_position_limit = 100

(* The first [limit] satisfying positions in preorder, rendered once as
   the JSON array the wire carries, without materialising the rest — a
   query selecting half a 200k-node document still answers with a
   bounded line. A position string is digits, dots or "ε", so it needs
   no JSON escape. *)
let bounded_positions doc set ~count ~limit =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '[';
  let taken = ref 0 in
  (try
     Bitv.iter
       (fun x ->
         if !taken >= limit then raise Exit;
         if !taken > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '"';
         Path_.add_to_buffer buf (Eval_doc.position doc x);
         Buffer.add_char buf '"';
         incr taken)
       set
   with Exit -> ());
  Buffer.add_char buf ']';
  (Buffer.contents buf, count > limit)

(* Runs the query on the entry's shared evaluator. The deadline ref is
   set for the duration of the evaluation under the entry lock (one
   evaluation at a time per document — the memo tables are
   single-domain mutable state); [Eval.Deadline] leaves the memo valid,
   so a timed-out request never poisons later ones. *)
let eval_uncached entry ~trace ~deadline ~limit query =
  Trace.mark trace "eval_run";
  let before = Eval.node_evals entry.e_eval in
  let outcome =
    Mutex.protect entry.e_lock (fun () ->
        entry.e_deadline := deadline;
        let r =
          match Eval.nodes entry.e_eval query with
          | set -> Ok set
          | exception Eval.Deadline -> Error Emptiness.deadline_exceeded
        in
        entry.e_deadline := None;
        r)
  in
  let node_evals = Eval.node_evals entry.e_eval - before in
  Trace.mark trace "eval_positions";
  let result =
    Result.map
      (fun set ->
        let count = Bitv.cardinal set in
        let positions, truncated =
          bounded_positions entry.e_doc set ~count ~limit
        in
        {
          root = Bitv.mem 0 set;
          count;
          positions;
          truncated;
          doc_nodes = entry.e_doc.Eval_doc.n;
          node_evals;
        })
      outcome
  in
  (result, node_evals)

let eval_finish t (r : eval_request) ~trace ~result ~cached ~flight
    ~node_evals =
  Trace.finish trace;
  let ms = Trace.elapsed_ms trace in
  let outcome =
    match result with
    | Ok _ -> `Ok
    | Error why when why = Emptiness.deadline_exceeded -> `Deadline
    | Error _ -> `Error
  in
  Mutex.protect t.lock (fun () ->
      Metrics.record_eval t.meters ~outcome ~cached ~ms ~node_evals;
      if flight then Metrics.record_single_flight t.meters;
      Metrics.record_trace t.meters trace);
  {
    ev_rid = r.ev_id;
    result;
    ev_cached = cached;
    ev_ms = ms;
    ev_trace = trace;
  }

let eval ?trace t (r : eval_request) =
  let tr = match trace with Some tr -> tr | None -> Trace.create () in
  let deadline = deadline_of tr r.ev_timeout_ms in
  Trace.mark tr "eval_resolve";
  match resolve_entry t r.source with
  | Error e ->
    eval_finish t r ~trace:tr ~result:(Error e) ~cached:false ~flight:false
      ~node_evals:0
  | Ok entry ->
    let limit = max 0 (Option.value r.limit ~default:default_position_limit) in
    (* The printed parsed query keys the cache (so texts differing
       only in whitespace share an entry), not the canonical form:
       canonicalization is only proven semantics-preserving for
       satisfiability (root evaluation), while eval reports every
       selected position. *)
    let key =
      Digest.string
        (String.concat "\x00"
           [ entry.e_digest; Pp.node_to_string r.query; string_of_int limit ])
    in
    let rec attempt () =
      Trace.mark tr "eval_cache_probe";
      let decision =
        Mutex.protect t.lock (fun () ->
            match Lru.find t.eval_cache key with
            | Some res -> `Hit res
            | None -> (
              match Hashtbl.find_opt t.eval_inflight key with
              | Some fl ->
                fl.ev_waiters <- fl.ev_waiters + 1;
                `Join fl
              | None ->
                let fl =
                  { ev_outcome = None;
                    ev_landed = false;
                    ev_waiters = 0;
                    ev_cond = Condition.create ()
                  }
                in
                Hashtbl.replace t.eval_inflight key fl;
                `Lead fl))
      in
      match decision with
      | `Hit res ->
        eval_finish t r ~trace:tr ~result:(Ok res) ~cached:true
          ~flight:false ~node_evals:0
      | `Join fl -> (
        Trace.mark tr "eval_flight_wait";
        let outcome =
          Mutex.protect t.lock (fun () ->
              while not fl.ev_landed do
                Condition.wait fl.ev_cond t.lock
              done;
              fl.ev_waiters <- fl.ev_waiters - 1;
              fl.ev_outcome)
        in
        match outcome with
        | Some res ->
          eval_finish t r ~trace:tr ~result:(Ok res) ~cached:true
            ~flight:true ~node_evals:0
        | None ->
          (* The leader erred or hit its deadline — neither outcome is
             shareable (our own deadline may differ): try again. *)
          attempt ())
      | `Lead fl -> (
        let publish outcome =
          Mutex.protect t.lock (fun () ->
              (match outcome with
              | Some res -> Lru.add t.eval_cache key res
              | None -> ());
              fl.ev_outcome <- outcome;
              fl.ev_landed <- true;
              Hashtbl.remove t.eval_inflight key;
              Condition.broadcast fl.ev_cond)
        in
        match eval_uncached entry ~trace:tr ~deadline ~limit r.query with
        | (Ok res as result), node_evals ->
          publish (Some res);
          eval_finish t r ~trace:tr ~result ~cached:false ~flight:false
            ~node_evals
        | (Error _ as result), node_evals ->
          publish None;
          eval_finish t r ~trace:tr ~result ~cached:false ~flight:false
            ~node_evals
        | exception e ->
          publish None;
          raise e)
    in
    attempt ()

(* --- NDJSON wire format (versioned; see docs/protocol.md) --- *)

let protocol_version = 1

let verdict_name = function
  | Sat.Sat _ -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unsat_bounded _ -> "unsat_bounded"
  | Sat.Unknown _ -> "unknown"

let known_request_fields = [ "v"; "id"; "kind"; "formula"; "timeout_ms" ]

let known_eval_request_fields =
  [ "v"; "id"; "kind"; "formula"; "doc"; "xml"; "tree"; "timeout_ms";
    "limit" ]

let known_contains_request_fields =
  [ "v"; "id"; "kind"; "phi"; "psi"; "timeout_ms" ]

let known_doctype_request_fields =
  [ "v"; "id"; "kind"; "formula"; "doctype"; "timeout_ms" ]

type wire_request =
  | Sat_request of request
  | Eval_request of eval_request
  | Contains_request of contains_request
  | Equiv_request of equiv_request
  | Doctype_request of doctype_request

let request_id v =
  match Json.member "id" v with
  | Some (Json.Str s) -> s
  | Some (Json.Num f) -> Json.num_to_string f
  | _ -> ""

let request_formula v =
  match Option.bind (Json.member "formula" v) Json.to_str with
  | None -> Error "missing \"formula\" field"
  | Some text -> (
    match Parser.formula_of_string text with
    | Error e -> Error (Printf.sprintf "bad formula: %s" e)
    | Ok f -> Ok (Ast.as_node f))

let parse_sat_body v =
  Result.map
    (fun formula ->
      Sat_request
        { id = request_id v;
          formula;
          timeout_ms = Option.bind (Json.member "timeout_ms" v) Json.to_float
        })
    (request_formula v)

(* The containment verbs carry two formulas, ϕ ("phi") and ψ ("psi"). *)
let request_phi_psi v =
  let formula name =
    match Option.bind (Json.member name v) Json.to_str with
    | None -> Error (Printf.sprintf "missing %S field" name)
    | Some text -> (
      match Parser.formula_of_string text with
      | Error e -> Error (Printf.sprintf "bad %s: %s" name e)
      | Ok f -> Ok (Ast.as_node f))
  in
  match formula "phi" with
  | Error e -> Error e
  | Ok phi -> (
    match formula "psi" with
    | Error e -> Error e
    | Ok psi -> Ok (phi, psi))

let parse_contains_body v =
  Result.map
    (fun (phi, psi) ->
      Contains_request
        { ct_id = request_id v;
          phi;
          psi;
          ct_timeout_ms =
            Option.bind (Json.member "timeout_ms" v) Json.to_float
        })
    (request_phi_psi v)

let parse_equiv_body v =
  Result.map
    (fun (phi, psi) ->
      Equiv_request
        { eq_id = request_id v;
          eq_phi = phi;
          eq_psi = psi;
          eq_timeout_ms =
            Option.bind (Json.member "timeout_ms" v) Json.to_float
        })
    (request_phi_psi v)

let known_doctype_rule_fields = [ "parent"; "at_least"; "forbidden" ]

(* A doctype on the wire is an array of closed rule objects:
   [{"parent":"a", "at_least":[[2,"b"]], "forbidden":["c"]}]. Every
   structural defect — and a rule set {!Doctype.validate} rejects — is
   a parse-time [Error] answered as a structured {"error"} line, never
   a crash-isolated [Unknown "crash: ..."] report. *)
let parse_doctype_rules v =
  let ( let* ) = Result.bind in
  let rec map_m f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = map_m f rest in
      Ok (y :: ys)
  in
  let rule = function
    | Json.Obj fields as r -> (
      match
        List.find_opt
          (fun (k, _) -> not (List.mem k known_doctype_rule_fields))
          fields
      with
      | Some (k, _) ->
        Error
          (Printf.sprintf
             "bad doctype: unknown rule field %S (rules accept: %s)" k
             (String.concat ", " known_doctype_rule_fields))
      | None ->
        let* parent =
          match Option.bind (Json.member "parent" r) Json.to_str with
          | Some s -> Ok s
          | None -> Error "bad doctype: rule missing \"parent\" (a string)"
        in
        let* at_least =
          match Json.member "at_least" r with
          | None -> Ok []
          | Some (Json.Arr items) ->
            map_m
              (fun item ->
                match item with
                | Json.Arr [ n; Json.Str b ]
                  when Json.to_int n <> None ->
                  Ok (Option.get (Json.to_int n), b)
                | _ ->
                  Error
                    "bad doctype: \"at_least\" entries are [count, \
                     \"label\"] pairs")
              items
          | Some _ ->
            Error "bad doctype: \"at_least\" must be an array of pairs"
        in
        let* forbidden =
          match Json.member "forbidden" r with
          | None -> Ok []
          | Some (Json.Arr items) ->
            map_m
              (fun item ->
                match item with
                | Json.Str b -> Ok b
                | _ ->
                  Error
                    "bad doctype: \"forbidden\" entries are label \
                     strings")
              items
          | Some _ ->
            Error "bad doctype: \"forbidden\" must be an array of labels"
        in
        Ok { Doctype.parent; at_least; forbidden })
    | _ -> Error "bad doctype: each rule must be an object"
  in
  match Json.member "doctype" v with
  | None -> Error "missing \"doctype\" field (an array of rule objects)"
  | Some (Json.Arr rules) -> (
    let* rules = map_m rule rules in
    match Doctype.validate rules with
    | Ok () -> Ok rules
    | Error e -> Error (Printf.sprintf "bad doctype: %s" e))
  | Some _ -> Error "\"doctype\" must be an array of rule objects"

let parse_doctype_body v =
  match request_formula v with
  | Error e -> Error e
  | Ok formula -> (
    match parse_doctype_rules v with
    | Error e -> Error e
    | Ok rules ->
      Ok
        (Doctype_request
           { dt_id = request_id v;
             dt_formula = formula;
             dt_rules = rules;
             dt_timeout_ms =
               Option.bind (Json.member "timeout_ms" v) Json.to_float
           }))

(* An eval request addresses exactly one document: a registered name
   ("doc"), inline XML ("xml"), or inline data-tree syntax ("tree"). *)
let parse_eval_source v =
  let str_field name =
    match Json.member name v with
    | None -> Ok None
    | Some (Json.Str s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "%S must be a string" name)
  in
  match (str_field "doc", str_field "xml", str_field "tree") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok doc, Ok xml, Ok tree -> (
    match (doc, xml, tree) with
    | Some name, None, None -> Ok (Doc_named name)
    | None, Some src, None -> Ok (Doc_xml src)
    | None, None, Some src -> Ok (Doc_tree src)
    | None, None, None ->
      Error
        "missing document: an eval request carries exactly one of \
         \"doc\", \"xml\", \"tree\""
    | _ ->
      Error
        "ambiguous document: an eval request carries exactly one of \
         \"doc\", \"xml\", \"tree\"")

let parse_eval_body v =
  match request_formula v with
  | Error e -> Error e
  | Ok query -> (
    match parse_eval_source v with
    | Error e -> Error e
    | Ok source -> (
      match Json.member "limit" v with
      | Some j when Json.to_int j = None ->
        Error "\"limit\" must be an integer"
      | limit_json ->
        Ok
          (Eval_request
             { ev_id = request_id v;
               query;
               source;
               ev_timeout_ms =
                 Option.bind (Json.member "timeout_ms" v) Json.to_float;
               limit = Option.bind limit_json Json.to_int
             })))

let wire_request_of_json line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok (Json.Obj fields as v) -> (
    (* The request kind selects the schema; each kind's schema is
       closed — an unknown field is an error (not a silent ignore), so
       a client typo'd "timeout" or a v2-only field fails loudly
       instead of quietly changing semantics. *)
    let kind =
      match Json.member "kind" v with
      | None | Some (Json.Str "sat") -> Ok `Sat
      | Some (Json.Str "eval") -> Ok `Eval
      | Some (Json.Str "contains") -> Ok `Contains
      | Some (Json.Str "equiv") -> Ok `Equiv
      | Some (Json.Str "sat_under_doctype") -> Ok `Doctype
      | Some (Json.Str other) ->
        Error
          (Printf.sprintf
             "unknown request kind %S (protocol v%d speaks: sat, eval, \
              contains, equiv, sat_under_doctype)"
             other protocol_version)
      | Some _ -> Error "\"kind\" must be a string"
    in
    match kind with
    | Error e -> Error e
    | Ok kind -> (
      let kind_name, known =
        match kind with
        | `Sat -> ("sat", known_request_fields)
        | `Eval -> ("eval", known_eval_request_fields)
        | `Contains -> ("contains", known_contains_request_fields)
        | `Equiv -> ("equiv", known_contains_request_fields)
        | `Doctype -> ("sat_under_doctype", known_doctype_request_fields)
      in
      match
        List.find_opt (fun (k, _) -> not (List.mem k known)) fields
      with
      | Some (k, _) ->
        Error
          (Printf.sprintf
             "unknown field %S (protocol v%d %s requests accept: %s)" k
             protocol_version kind_name
             (String.concat ", " known))
      | None -> (
        let parse_body () =
          match kind with
          | `Sat -> parse_sat_body v
          | `Eval -> parse_eval_body v
          | `Contains -> parse_contains_body v
          | `Equiv -> parse_equiv_body v
          | `Doctype -> parse_doctype_body v
        in
        match Json.member "v" v with
        | Some (Json.Num f) when f = float_of_int protocol_version ->
          parse_body ()
        | Some other ->
          Error
            (Printf.sprintf
               "unsupported protocol version %s (this server speaks v%d)"
               (Json.to_string other) protocol_version)
        | None ->
          (* An absent "v" means v1: the pre-versioning wire format is
             exactly the v1 schema, so old clients keep working. *)
          parse_body ())))
  | Ok _ -> Error "request must be a JSON object"

let request_of_json line =
  match wire_request_of_json line with
  | Ok (Sat_request r) -> Ok r
  | Ok _ -> Error "non-sat request passed to the sat request parser"
  | Error e -> Error e

let round_ms ms = Json.Num (Float.round (ms *. 1000.) /. 1000.)

let robustness_fields_of resp =
  (if resp.degraded then [ ("degraded", Json.Bool true) ] else [])
  @
  if is_crash resp.report then
    (* A poisoned request: same structured ["error"] field the serve
       loop uses for unparsable lines, so clients have one place to
       look. *)
    match resp.report.Sat.verdict with
    | Sat.Unknown why -> [ ("error", Json.Str why) ]
    | _ -> []
  else []

let response_to_json ?(trace = false) ?(extra = []) resp =
  let report = resp.report in
  let base =
    [ ("v", Json.Num (float_of_int protocol_version));
      ("id", Json.Str resp.id);
      ("verdict", Json.Str (verdict_name report.Sat.verdict));
      ("cached", Json.Bool resp.cached);
      ("tier", Json.Str resp.tier);
      ("ms", Json.Num (Float.round (resp.ms *. 1000.) /. 1000.));
      ("fragment", Json.Str (Fragment.name report.Sat.fragment));
      ( "states",
        Json.Num (float_of_int report.Sat.stats.Emptiness.n_states) );
      ( "transitions",
        Json.Num (float_of_int report.Sat.stats.Emptiness.n_transitions) )
    ]
  in
  let verdict_fields =
    match report.Sat.verdict with
    | Sat.Sat w ->
      [ ("witness", Json.Str (Data_tree.to_string w)) ]
      @ (match report.Sat.witness_verified with
        | Some ok -> [ ("verified", Json.Bool ok) ]
        | None -> [])
    | Sat.Unsat -> []
    | Sat.Unsat_bounded why | Sat.Unknown why ->
      [ ("reason", Json.Str why) ]
  in
  let trace_fields =
    if trace then [ ("trace", Trace.to_json resp.trace) ] else []
  in
  Json.to_string
    (Json.Obj
       (base @ verdict_fields @ robustness_fields_of resp @ trace_fields
      @ extra))

let answer_name = function
  | Containment.Holds -> "holds"
  | Containment.Holds_bounded _ -> "holds_bounded"
  | Containment.Fails _ -> "fails"
  | Containment.Unknown _ -> "unknown"

(* The shared body of a containment direction: the answer plus its
   payload. Counterexamples travel in the parseable
   [Data_tree.to_compact_string] syntax (not the paper pp notation) so
   a client — or the CI smoke — can replay them through [xpds check]
   and [Data_tree.of_string]. *)
let containment_fields (resp : response) =
  let answer = contains_answer resp in
  [ ("answer", Json.Str (answer_name answer)) ]
  @ (match answer with
    | Containment.Fails w ->
      [ ("counterexample", Json.Str (Data_tree.to_compact_string w)) ]
      @ (match resp.report.Sat.witness_verified with
        | Some ok -> [ ("verified", Json.Bool ok) ]
        | None -> [])
    | Containment.Holds -> []
    | Containment.Holds_bounded why | Containment.Unknown why ->
      [ ("reason", Json.Str why) ])

let contains_response_to_json ?(trace = false) resp =
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Num (float_of_int protocol_version));
          ("id", Json.Str resp.id);
          ("kind", Json.Str "contains")
        ]
       @ containment_fields resp
       @ [ ("cached", Json.Bool resp.cached);
           ("tier", Json.Str resp.tier);
           ("ms", round_ms resp.ms)
         ]
       @ robustness_fields_of resp
       @ if trace then [ ("trace", Trace.to_json resp.trace) ] else []))

let equiv_response_to_json ?(trace = false) resp =
  let direction r =
    Json.Obj
      (containment_fields r
      @ [ ("cached", Json.Bool r.cached);
          ("tier", Json.Str r.tier);
          ("ms", round_ms r.ms)
        ]
      @ robustness_fields_of r
      @ if trace then [ ("trace", Trace.to_json r.trace) ] else [])
  in
  let settled r =
    match contains_answer r with
    | Containment.Holds | Containment.Holds_bounded _ -> Some true
    | Containment.Fails _ -> Some false
    | Containment.Unknown _ -> None
  in
  (* One failing direction settles non-equivalence even when the other
     is unknown; "equivalent" is omitted (not guessed) while any needed
     direction is still unknown. *)
  let equivalent =
    match (settled resp.forward, settled resp.backward) with
    | Some false, _ | _, Some false -> Some false
    | Some true, Some true -> Some true
    | _ -> None
  in
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Num (float_of_int protocol_version));
          ("id", Json.Str resp.eq_rid);
          ("kind", Json.Str "equiv")
        ]
       @ (match equivalent with
         | Some b -> [ ("equivalent", Json.Bool b) ]
         | None -> [])
       @ [ ("forward", direction resp.forward);
           ("backward", direction resp.backward);
           ("ms", round_ms resp.eq_ms)
         ]))

let doctype_response_to_json ?(trace = false) resp =
  let report = resp.report in
  let base =
    [ ("v", Json.Num (float_of_int protocol_version));
      ("id", Json.Str resp.id);
      ("kind", Json.Str "sat_under_doctype");
      ("verdict", Json.Str (verdict_name report.Sat.verdict));
      ("cached", Json.Bool resp.cached);
      ("tier", Json.Str resp.tier);
      ("ms", round_ms resp.ms);
      ("fragment", Json.Str (Fragment.name report.Sat.fragment));
      ( "states",
        Json.Num (float_of_int report.Sat.stats.Emptiness.n_states) );
      ( "transitions",
        Json.Num (float_of_int report.Sat.stats.Emptiness.n_transitions) )
    ]
  in
  let verdict_fields =
    match report.Sat.verdict with
    | Sat.Sat w ->
      (* Conforming witnesses travel in the parseable compact syntax,
         unlike the legacy sat response (whose paper notation is pinned
         by existing clients). *)
      [ ("witness", Json.Str (Data_tree.to_compact_string w)) ]
      @ (match report.Sat.witness_verified with
        | Some ok -> [ ("verified", Json.Bool ok) ]
        | None -> [])
    | Sat.Unsat -> []
    | Sat.Unsat_bounded why | Sat.Unknown why ->
      [ ("reason", Json.Str why) ]
  in
  Json.to_string
    (Json.Obj
       (base @ verdict_fields @ robustness_fields_of resp
       @ if trace then [ ("trace", Trace.to_json resp.trace) ] else []))

let eval_response_to_json ?(trace = false) resp =
  let base =
    [ ("v", Json.Num (float_of_int protocol_version));
      ("id", Json.Str resp.ev_rid);
      ("kind", Json.Str "eval")
    ]
  in
  let body =
    match resp.result with
    | Ok r ->
      [ ("root", Json.Bool r.root);
        ("count", Json.Num (float_of_int r.count));
        ("nodes", Json.Raw r.positions)
      ]
      @ (if r.truncated then [ ("nodes_truncated", Json.Bool true) ]
         else [])
      @ [ ("doc_nodes", Json.Num (float_of_int r.doc_nodes));
          ("node_evals", Json.Num (float_of_int r.node_evals))
        ]
    | Error e -> [ ("error", Json.Str e) ]
  in
  let tail =
    [ ("cached", Json.Bool resp.ev_cached);
      ("ms", Json.Num (Float.round (resp.ev_ms *. 1000.) /. 1000.))
    ]
    @ if trace then [ ("trace", Trace.to_json resp.ev_trace) ] else []
  in
  Json.to_string (Json.Obj (base @ body @ tail))

let error_to_json ?id msg =
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Num (float_of_int protocol_version)) ]
       @ (match id with Some id -> [ ("id", Json.Str id) ] | None -> [])
       @ [ ("error", Json.Str msg) ]))

(* One line in, one line out, and no exception ever escapes: a served
   socket must survive arbitrary garbage. *)
let handle_line ?default_timeout_ms ?(trace = false)
    ?(extra_of = fun _ -> []) t line =
  let tr = Trace.create () in
  Trace.mark tr "parse";
  let parsed =
    (* The parser reports syntax errors as [Error], but a hostile line
       can still blow a recursion limit (deeply nested input): fold any
       escapee into the same structured error. *)
    match wire_request_of_json line with
    | r -> r
    | exception e ->
      Error (Printf.sprintf "bad request: %s" (Printexc.to_string e))
  in
  match parsed with
  | Error e ->
    (* A schema violation on an otherwise well-formed JSON line still
       names the request it rejects: recover the id so a pipelined
       client can match the error to its request. *)
    let id =
      match Json.parse line with
      | Ok v -> (match request_id v with "" -> None | id -> Some id)
      | Error _ -> None
    in
    error_to_json ?id e
  | Ok (Sat_request req) -> (
    let req =
      match req.timeout_ms with
      | Some _ -> req
      | None -> { req with timeout_ms = default_timeout_ms }
    in
    match
      let resp = solve ~trace:tr t req in
      response_to_json ~trace ~extra:(extra_of resp) resp
    with
    | line -> line
    | exception e ->
      error_to_json ~id:req.id
        (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
  | Ok (Eval_request req) -> (
    let req =
      match req.ev_timeout_ms with
      | Some _ -> req
      | None -> { req with ev_timeout_ms = default_timeout_ms }
    in
    match
      let resp = eval ~trace:tr t req in
      eval_response_to_json ~trace resp
    with
    | line -> line
    | exception e ->
      error_to_json ~id:req.ev_id
        (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
  | Ok (Contains_request req) -> (
    let req =
      match req.ct_timeout_ms with
      | Some _ -> req
      | None -> { req with ct_timeout_ms = default_timeout_ms }
    in
    match
      let resp = solve_contains ~trace:tr t req in
      contains_response_to_json ~trace resp
    with
    | line -> line
    | exception e ->
      error_to_json ~id:req.ct_id
        (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
  | Ok (Equiv_request req) -> (
    let req =
      match req.eq_timeout_ms with
      | Some _ -> req
      | None -> { req with eq_timeout_ms = default_timeout_ms }
    in
    match
      let resp = solve_equiv ~trace:tr t req in
      equiv_response_to_json ~trace resp
    with
    | line -> line
    | exception e ->
      error_to_json ~id:req.eq_id
        (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
  | Ok (Doctype_request req) -> (
    let req =
      match req.dt_timeout_ms with
      | Some _ -> req
      | None -> { req with dt_timeout_ms = default_timeout_ms }
    in
    match
      let resp = solve_sat_under_doctype ~trace:tr t req in
      doctype_response_to_json ~trace resp
    with
    | line -> line
    | exception e ->
      error_to_json ~id:req.dt_id
        (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
