(** A concurrent, cached, fault-tolerant front end to
    {!Xpds_decision.Sat}.

    The solver is an expensive pure kernel; this module puts the usual
    serving machinery in front of it:

    - {b canonical cache keys} ({!Cache_key}): requests whose formulas
      agree up to {!Xpds_xpath.Rewrite.canonical} and run under the same
      solver configuration share one cache entry;
    - a {b bounded LRU result cache} ({!Lru}) — hits return the stored
      {!Xpds_decision.Sat.report} physically unchanged, in O(1);
    - {b single-flight deduplication}: concurrent [solve] calls on the
      same key share {e one} computation — the first miss leads and
      solves, the rest wait on its result and report [cached = true]
      (counted separately in {!Metrics.snapshot.single_flight}). Only
      deterministic (cacheable) verdicts are shared: if the leader times
      out or crashes, each waiter retries under its own deadline;
    - {b batches} ([solve_batch]) solved one item after another on the
      calling domain, with in-batch deduplication so each distinct key
      is solved once (multi-core serving runs one service per forked
      shard: {!Xpds_shard.Shard});
    - {b monotonic, admission-anchored deadlines}: [timeout_ms] arms the
      cooperative [should_stop] hook of
      {!Xpds_decision.Emptiness.config} against
      [CLOCK_MONOTONIC] ({!Trace.now_ms} — immune to wall-clock steps),
      with the budget anchored at the request's {e admission}: a batch
      item burns its budget while queued and can never exceed its
      caller-visible deadline. A fired deadline yields
      [Unknown "deadline exceeded"] — never a wrong certified verdict —
      and such time-dependent results are {e not} cached (every
      deterministic verdict, including budget-limited [Unknown]s, is);
    - {b crash isolation}: a request whose solve raises is folded into
      an [Unknown "crash: ..."] error report (never cached, surfaced as
      an ["error"] field on the wire); in a batch the poisoned item
      degrades alone and every other verdict is still returned;
    - {b graceful degradation}: with [retry_degraded] set, a
      budget-exhausted [Unknown] (not a deadline) is retried once under
      strictly smaller bounds, trading completeness for an honest
      [Unsat_bounded]/[Sat] instead of an opaque [Unknown] — the
      response is flagged [degraded];
    - {b per-request tracing} ({!Trace}): every response carries phase
      timings (parse → canonicalize → cache probe → queue →
      translate/fixpoint/verify → certificate) plus queue-wait,
      aggregated per-phase into {!Metrics};
    - {b metrics} ({!Metrics}): request/hit/verdict counters, latency
      min/mean/p95/max, fixpoint-stats aggregates, robustness counters.

    A service value is safe to share across domains a library caller
    spawns: the cache, the in-flight table and the metrics are guarded
    by one internal mutex, held only around O(1) bookkeeping — solving
    happens outside it.

    Caveat on shared flights: a waiter blocks until the leader lands,
    even past its own deadline when the leader's is longer (the shared
    verdict is deterministic, so this only ever trades latency, never
    honesty); a waiter whose budget died waiting then answers
    [Unknown "deadline exceeded"] immediately. [solve_batch] dedupes
    within its batch and against the cache, not against in-flight
    [solve] calls. *)

(** The one construction seam of a service: a plain record built from
    {!Config.default} with [with_*] combinators, mirroring
    {!Xpds_decision.Sat.Options.t}. Every construction site — [serve],
    [batch], the benches, the shard workers, the tests — goes through
    {!create} on a [Config.t]; there is no optional-argument
    entrypoint. *)
module Config : sig
  type solver = {
    width : int;
    t0 : int option;
    dup_cap : int option;
    merge_budget : int option;
    max_states : int;
    max_transitions : int;
    verify : bool;
    certificate : bool;
        (** run in certificate mode: reports carry a
            {!Xpds_decision.Sat.cert_seed} from which {!Xpds_cert.Cert}
            builds a checkable certificate *)
    retry_degraded : bool;
        (** retry a budget-exhausted [Unknown] once under degraded
            bounds (width−1, halved t0, dup_cap 1, merge_budget 2)
            instead of giving up — graceful degradation for fired
            budgets *)
    prune : bool;
        (** subsumption pruning in the emptiness fixpoint
            ({!Xpds_decision.Sat.Options.prune}); default [true].
            Certificate runs force exact mode regardless. NOT part of
            the cache key: verdicts agree on
            searches that finish within budget, and budget-capped
            answers are honest in both modes, so cached entries are
            interchangeable. *)
  }
  (** Knobs forwarded to {!Xpds_decision.Sat.decide}; part of the cache
      key (except [prune] — see above), so changing them
      never serves stale verdicts. *)

  type t = {
    solver : solver;
    cache_capacity : int;  (** LRU entries; default 4096 *)
    max_doc_nodes : int;
        (** admission bound for eval documents (inline or registered);
            larger documents answer a structured error. Default
            200_000. *)
    eval_cache_capacity : int;
        (** LRU entries of the eval result cache; default 4096 *)
    doc_cache_capacity : int;
        (** LRU entries of the inline-document cache (flattened
            documents keyed by source digest); default 64 *)
  }

  val default_solver : solver
  (** The practical defaults of {!Xpds_decision.Sat.decide};
      [retry_degraded] off. *)

  val default : t

  (** Combinators over the solver knobs. *)

  val with_solver : solver -> t -> t
  val with_width : int -> t -> t
  val with_t0 : int option -> t -> t
  val with_dup_cap : int option -> t -> t
  val with_merge_budget : int option -> t -> t
  val with_max_states : int -> t -> t
  val with_max_transitions : int -> t -> t
  val with_verify : bool -> t -> t
  val with_certificate : bool -> t -> t
  val with_retry_degraded : bool -> t -> t
  val with_prune : bool -> t -> t

  (** Combinators over the serving knobs. *)

  val with_cache_capacity : int -> t -> t
  val with_max_doc_nodes : int -> t -> t
  val with_eval_cache_capacity : int -> t -> t
  val with_doc_cache_capacity : int -> t -> t

  val fingerprint : solver -> string
  (** The cache-key configuration fingerprint of a solver config — the
      string both {!Cache_key.make} and the store header versioning are
      keyed on. Excludes [prune] (see {!solver}). *)
end

type request = {
  id : string;
  formula : Xpds_xpath.Ast.node;
  timeout_ms : float option;
      (** per-request deadline, anchored at admission *)
}

type response = {
  id : string;
  report : Xpds_decision.Sat.report;
  cached : bool;
      (** served without a fresh solve: from the result cache, by
          joining an in-flight computation, or as an in-batch duplicate *)
  degraded : bool;
      (** this verdict came from a degraded-bounds retry *)
  tier : string;
      (** which tier answered: ["memory"] (the in-process caches —
          including flight joins and in-batch duplicates), ["disk"] (the
          persistent store, after verify-on-load) or ["solve"] (fresh
          computation). [cached = (tier <> "solve")]. *)
  ms : float;
      (** caller-visible latency: admission to completion, monotonic *)
  key : Cache_key.t;
  trace : Trace.t;  (** phase timings of this request *)
}

type t

val create : ?store:Xpds_store.Store.t -> Config.t -> t
(** [?store] layers a persistent verdict store under the memory cache as
    a second tier: a memory miss probes the store (the [store_probe]
    trace phase) before solving, and every cacheable fresh verdict is
    appended to it. The store must have been opened under this service's
    configuration — {!Config.fingerprint} of the config's [solver] — or
    its records would never probe successfully; {!Xpds_store.Store}'s
    header versioning enforces exactly that at open. The caller keeps
    ownership: close the store (flushing its session counters) at
    shutdown. *)

val config : t -> Config.t

val solve : ?trace:Trace.t -> t -> request -> response
(** [?trace] threads in a pre-admitted trace (e.g. one that already
    carries the wire-parse span and anchors the deadline at line
    receipt); by default a fresh one is created on entry. *)

val solve_batch : t -> request list -> response list
(** Responses in request order. The distinct misses are solved one
    after another on the calling domain; duplicate keys within the
    batch are solved once and the copies are reported [cached = true].
    Deadlines are anchored at batch admission, so queue wait counts
    against each item's budget. A raising item yields an error response
    for that item only and the rest of the batch completes. *)

(* --- the containment verbs: every paper §4.1 decision problem --- *)

type contains_request = {
  ct_id : string;
  phi : Xpds_xpath.Ast.node;
  psi : Xpds_xpath.Ast.node;
  ct_timeout_ms : float option;
}

type equiv_request = {
  eq_id : string;
  eq_phi : Xpds_xpath.Ast.node;
  eq_psi : Xpds_xpath.Ast.node;
  eq_timeout_ms : float option;
}

type equiv_response = {
  eq_rid : string;
  forward : response;  (** ϕ ⊑ ψ, as a contains response *)
  backward : response;  (** ψ ⊑ ϕ *)
  eq_ms : float;
}

type doctype_request = {
  dt_id : string;
  dt_formula : Xpds_xpath.Ast.node;
  dt_rules : Xpds_automata.Doctype.t;
  dt_timeout_ms : float option;
}

val solve_contains : ?trace:Trace.t -> t -> contains_request -> response
(** Decide ϕ ⊑ ψ as unsatisfiability of ϕ ∧ ¬ψ (paper §4.1), through
    the full serving stack: the key is the canonical ϕ ∧ ¬ψ tagged with
    kind ["contains"] — it never aliases a plain sat entry for the same
    formula — and the deadline bounds the whole ϕ ∧ ¬ψ search. With the
    default [verify] config, a [Fails] counterexample in the response's
    report has been replayed through {!Xpds_decision.Semantics} before
    entering any cache. Interpret the verdict with {!contains_answer}. *)

val contains_answer : response -> Xpds_decision.Containment.answer
(** The containment reading of a {!solve_contains} (or per-direction
    {!solve_equiv}) response: [Sat w ↦ Fails w], [Unsat ↦ Holds],
    [Unsat_bounded ↦ Holds_bounded], [Unknown ↦ Unknown]. *)

val solve_equiv : ?trace:Trace.t -> t -> equiv_request -> equiv_response
(** Both directions as two {!solve_contains} calls sharing the contains
    cache (a direction asked directly and as half of an equiv share one
    entry). The forward direction runs on the caller's trace under the
    full [eq_timeout_ms]; the backward direction gets whatever budget
    remains. *)

val solve_sat_under_doctype :
  ?trace:Trace.t -> t -> doctype_request -> response
(** Satisfiability under a counting document type
    ({!Xpds_decision.Sat.decide_under_doctype}): BIP intersection +
    emptiness, served with kind ["sat_under_doctype"] and the doctype's
    {!Xpds_automata.Doctype.canonical_string} as the cache-key salt and
    store scope — the same formula under two doctypes occupies two
    entries. The rules should already be
    {!Xpds_automata.Doctype.validate}d (the wire parser does). *)

(* --- the eval verb: bulk evaluation over array-encoded documents --- *)

type eval_source =
  | Doc_named of string
      (** a document registered with {!register_doc} *)
  | Doc_xml of string  (** inline XML source ({!Xpds_datatree.Xml_doc}) *)
  | Doc_tree of string
      (** inline {!Xpds_datatree.Data_tree.of_string} syntax *)

type eval_request = {
  ev_id : string;
  query : Xpds_xpath.Ast.node;
  source : eval_source;
  ev_timeout_ms : float option;
      (** per-request deadline, anchored at admission — the evaluator's
          cooperative [should_stop] hook, like the solver's *)
  limit : int option;
      (** positions materialised in the result; default 100 *)
}

type eval_result = {
  root : bool;  (** does the query hold at the root? *)
  count : int;  (** |[[ϕ]]| — total satisfying nodes *)
  positions : string;
      (** the first [limit] satisfying positions, in preorder, already
          rendered as the JSON array text of the wire's ["nodes"] field
          (each position in the {!Xpds_datatree.Path.to_string}
          rendering, e.g. [["ε","0.1"]]). A result is rendered once,
          when it is computed, and kept in that form in the result
          cache: a cache hit re-renders nothing, and a cached entry is
          one short string rather than a list of int lists. *)
  truncated : bool;  (** [count > limit] *)
  doc_nodes : int;
  node_evals : int;
      (** fresh node×subformula evaluations this request added to the
          document's shared memo (0 on a pure memo replay) *)
}

type eval_response = {
  ev_rid : string;
  result : (eval_result, string) result;
      (** [Error] carries a structured reason: unknown document,
          oversized document, unparsable source, or
          ["deadline exceeded"] *)
  ev_cached : bool;
  ev_ms : float;
  ev_trace : Trace.t;
}

val register_doc :
  t -> name:string -> Xpds_eval.Doc.t -> (unit, string) result
(** Register a flattened document under [name] (replacing any previous
    binding) so eval requests can address it as [{"doc": name}].
    [Error] iff the document exceeds [max_doc_nodes]. *)

val registered_docs : t -> (string * int) list
(** The registry: [(name, node count)], sorted by name. *)

val eval : ?trace:Trace.t -> t -> eval_request -> eval_response
(** Evaluate one query against one document. The serving machinery
    mirrors [solve]: an LRU result cache keyed by
    (document digest, query text, limit), single-flight deduplication
    of concurrent identical requests, admission-anchored monotonic
    deadlines, and metrics ({!Metrics.record_eval}). Beyond the result
    cache, the document's evaluator {e memo} persists across requests:
    distinct queries over one document share sub-expression results, so
    a query batch pays for each distinct subformula once. Evaluations
    on one document are serialised (the memo is single-domain mutable
    state); different documents evaluate concurrently. Errors and
    deadline timeouts are never cached or shared. *)

val metrics : t -> Metrics.snapshot
val reset_metrics : t -> unit
val cache_length : t -> int

val inflight_waiters : t -> int
(** Number of requests currently blocked on another request's in-flight
    computation (an ops gauge; also what the single-flight tests pin). *)

val record_cert : t -> ok:bool -> ms:float -> unit
(** Count one certificate check in this service's metrics (under the
    service mutex). The service itself never builds or checks
    certificates — the certificate layer sits above it — so the caller
    reports the outcome. *)

module Chaos : sig
  val set : t -> (string -> unit) option -> unit
  (** Fault-injection hook for tests and resilience drills: called with
      the request id on the solving domain just before the fixpoint
      starts; an exception it raises is handled exactly like a solver
      crash (isolated error response). [None] (the default) disables
      it. *)
end

(* --- NDJSON wire format (the [xpds serve] / [xpds batch] protocol,
   versioned; schema in docs/protocol.md) --- *)

val protocol_version : int
(** The wire protocol version this build speaks (1). Every response and
    error object carries it as ["v"]; requests may carry it and are
    rejected with a structured error when it doesn't match. *)

type wire_request =
  | Sat_request of request
  | Eval_request of eval_request
  | Contains_request of contains_request
  | Equiv_request of equiv_request
  | Doctype_request of doctype_request

val wire_request_of_json : string -> (wire_request, string) result
(** One request per line. The ["kind"] field selects the verb — absent
    or ["sat"] for satisfiability, ["eval"] for document evaluation,
    ["contains"]/["equiv"] for containment, ["sat_under_doctype"] for
    doctype-constrained satisfiability — and each kind's schema is
    {e closed}: a field outside the kind's set is a structured error
    naming the field, as is a ["v"] other than {!protocol_version} (an
    absent ["v"] means v1 — the pre-versioning format is exactly the v1
    sat schema).

    sat: [{"v":1, "id":"r1", "kind":"sat", "formula":"<desc[a]>",
    "timeout_ms":500}] with {v, id, kind, formula, timeout_ms}.

    eval: [{"v":1, "id":"q1", "kind":"eval", "formula":"<child[a]>",
    "xml":"<r a='1'/>", "timeout_ms":500, "limit":10}] with
    {v, id, kind, formula, doc, xml, tree, timeout_ms, limit} and
    exactly one of ["doc"] (a registered name), ["xml"], ["tree"].

    contains / equiv: [{"v":1, "id":"c1", "kind":"contains",
    "phi":"<down[a & b]>", "psi":"<down[a]>", "timeout_ms":500}] with
    {v, id, kind, phi, psi, timeout_ms}.

    sat_under_doctype: [{"v":1, "id":"d1", "kind":"sat_under_doctype",
    "formula":"<down[a]>", "doctype":[{"parent":"a",
    "at_least":[[1,"b"]], "forbidden":["c"]}], "timeout_ms":500}] with
    {v, id, kind, formula, doctype, timeout_ms}; ["doctype"] is an
    array of closed rule objects ({parent, at_least, forbidden} — an
    unknown rule field is an error) which must pass
    {!Xpds_automata.Doctype.validate}: an invalid document type answers
    a structured ["error"] line, never a crash report. *)

val request_of_json : string -> (request, string) result
(** {!wire_request_of_json} restricted to sat requests (the pre-eval
    parser, kept for callers that only speak sat); any other kind is
    an error. [id] may be a JSON string or number (defaults to [""]);
    [formula] is the concrete syntax of {!Xpds_xpath.Parser};
    [timeout_ms] is optional. *)

val response_to_json :
  ?trace:bool -> ?extra:(string * Json.t) list -> response -> string
(** [{"v":1, "id":.., "verdict":.., "cached":.., "tier":.., "ms":..,
    "fragment":..,
    "states":.., "transitions":.., "reason":.. (when inconclusive),
    "witness":.. (when sat), "verified":.. (when checked),
    "degraded":true (after a degraded retry), "error":.. (when the
    solve crashed), "trace":{..} (with [~trace:true])}]. [extra] fields
    are appended verbatim — the [--certify] CLI layer uses this for its
    per-response certificate summary, keeping the service independent
    of the certificate format. *)

val contains_response_to_json : ?trace:bool -> response -> string
(** [{"v":1, "id":.., "kind":"contains", "answer":"holds" |
    "holds_bounded" | "fails" | "unknown", "counterexample":..
    (when fails — {!Xpds_datatree.Data_tree.to_compact_string} syntax,
    parseable by [of_string]), "verified":.. (when checked),
    "reason":.. (when bounded/unknown), "cached":.., "tier":.., "ms":..,
    "degraded"/"error" as in sat responses, "trace":{..} (with
    [~trace:true])}]. *)

val equiv_response_to_json : ?trace:bool -> equiv_response -> string
(** [{"v":1, "id":.., "kind":"equiv", "equivalent":bool (omitted while
    a needed direction is unknown — one failing direction settles
    [false]), "forward":{..}, "backward":{..}, "ms":..}] where each
    direction object carries the {!contains_response_to_json} body
    fields (answer, counterexample, reason, cached, tier, ms). *)

val doctype_response_to_json : ?trace:bool -> response -> string
(** The {!response_to_json} schema with ["kind":"sat_under_doctype"]
    and the witness — a tree that satisfies the formula {e and}
    conforms to the doctype — in the parseable compact syntax instead
    of paper notation. *)

val eval_response_to_json : ?trace:bool -> eval_response -> string
(** [{"v":1, "id":.., "kind":"eval", "root":.., "count":.., "nodes":
    [".." positions], "nodes_truncated":true (when [count > limit]),
    "doc_nodes":.., "node_evals":.., "cached":.., "ms":..,
    "trace":{..} (with [~trace:true])}] — or [{"v":1, "id":..,
    "kind":"eval", "error":.., "cached":false, "ms":..}] when the
    request failed (unknown/oversized/unparsable document, fired
    deadline). *)

val error_to_json : ?id:string -> string -> string
(** The structured error object the serve loop answers for lines it
    cannot turn into a response:
    [{"v":1, "id":.. (when known), "error":..}]. *)

val handle_line :
  ?default_timeout_ms:float ->
  ?trace:bool ->
  ?extra_of:(response -> (string * Json.t) list) ->
  t ->
  string ->
  string
(** One NDJSON exchange: parse the line (the [parse] trace span; the
    trace is admitted — and the deadline anchored — at line receipt),
    dispatch on ["kind"] (solve, eval, contains, equiv,
    sat_under_doctype), serialize. {b Never raises}:
    malformed JSON, unparsable
    formulas, and even a crashing solve all answer {!error_to_json} —
    feeding a served socket garbage must not kill the server.
    [extra_of] computes trailing response fields (the [--certify]
    layer); [default_timeout_ms] applies to requests without their own
    [timeout_ms]. *)

val verdict_name : Xpds_decision.Sat.verdict -> string
(** ["sat" | "unsat" | "unsat_bounded" | "unknown"]. *)
