(** A concurrent, cached, fault-tolerant front end to
    {!Xpds_decision.Sat}.

    Every verb of the wire protocol — sat, contains, equiv,
    sat_under_doctype, eval — arrives as one decoded {!Request.t} and
    goes through one entry point, {!handle}, and one renderer,
    {!answer_to_json}; {!handle_line} is decode → default timeout →
    {!handle} → render. The solver is an expensive pure kernel; this
    module puts the usual serving machinery in front of it:

    - {b canonical cache keys} ({!Cache_key}): requests whose formulas
      agree up to {!Xpds_xpath.Rewrite.canonical} and run under the same
      solver configuration share one cache entry;
    - a {b bounded LRU result cache} ({!Lru}) — hits return the stored
      {!Xpds_decision.Sat.report} physically unchanged, in O(1);
    - {b single-flight deduplication} ({!Flight}): concurrent requests
      on the same key share {e one} computation — the first miss leads and
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
    requests.

    The eval verb's registry, caches and evaluator memo live in
    {!Eval_verb}, which the service holds. *)

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
  }
  (** Knobs forwarded to {!Xpds_decision.Sat.decide}; part of the cache
      key, so changing them never serves stale verdicts. *)

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

  (** Combinators over the serving knobs. *)

  val with_cache_capacity : int -> t -> t
  val with_max_doc_nodes : int -> t -> t
  val with_eval_cache_capacity : int -> t -> t
  val with_doc_cache_capacity : int -> t -> t

  val fingerprint : solver -> string
  (** The cache-key configuration fingerprint of a solver config — the
      string both {!Cache_key.make} and the store header versioning are
      keyed on. *)
end

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
  key : Cache_key.t;  (** {!Request.key}'s digest of the request *)
  trace : Trace.t;  (** phase timings of this request *)
}
(** The answer of one solver-backed request (sat, one contains
    direction, sat_under_doctype). *)

(** What {!handle} answers, one constructor per request kind. *)
type answer =
  | Sat_answer of response
  | Contains_answer of response
      (** read the verdict with {!contains_answer} *)
  | Equiv_answer of { forward : response; backward : response; ms : float }
      (** ϕ ⊑ ψ and ψ ⊑ ϕ as two contains responses; [ms] spans both *)
  | Doctype_answer of response
  | Eval_answer of Eval_verb.response

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

val handle : ?trace:Trace.t -> t -> Request.t -> answer
(** Serve one decoded request. Solver-backed kinds are keyed by
    {!Request.key}, so a contains verdict never aliases a sat verdict
    for the same formula, and the same formula under two doctypes
    occupies two entries. Containment decides ϕ ⊑ ψ as unsatisfiability
    of ϕ ∧ ¬ψ (paper §4.1); with the default [verify] config a [Fails]
    counterexample has been replayed through {!Xpds_decision.Semantics}
    before entering any cache. An equiv runs its forward direction on
    the caller's trace under the full [timeout_ms] and its backward
    direction with whatever budget remains; both share the contains
    cache with direct contains requests. [?trace] threads in a
    pre-admitted trace (e.g. one that already carries the wire-parse
    span and anchors the deadline at line receipt); by default a fresh
    one is created on entry. *)

val solve_batch : t -> Request.t list -> response list
(** Sat requests only ([Invalid_argument] otherwise). Responses in
    request order. The distinct misses are solved one after another on
    the calling domain; duplicate keys within the batch are solved once
    and the copies are reported [cached = true]. Deadlines are anchored
    at batch admission, so queue wait counts against each item's
    budget. A raising item yields an error response for that item only
    and the rest of the batch completes. *)

val contains_answer : response -> Xpds_decision.Containment.answer
(** The containment reading of a contains direction: [Sat w ↦ Fails w],
    [Unsat ↦ Holds], [Unsat_bounded ↦ Holds_bounded],
    [Unknown ↦ Unknown]. *)

val register_doc :
  t -> name:string -> Xpds_eval.Doc.t -> (unit, string) result
(** Register a flattened document under [name] (replacing any previous
    binding) so eval requests can address it as [{"doc": name}].
    [Error] iff the document exceeds [max_doc_nodes]. *)

val registered_docs : t -> (string * int) list
(** The registry: [(name, node count)], sorted by name. *)

val metrics : t -> Metrics.snapshot
val reset_metrics : t -> unit
val cache_length : t -> int

val inflight_waiters : t -> int
(** Number of requests currently blocked on another request's in-flight
    solve (an ops gauge; also what the single-flight tests pin). *)

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
(** {!Request.protocol_version}. Every response and error object
    carries it as ["v"]. *)

val answer_to_json :
  ?trace:bool -> ?extra_of:(response -> (string * Json.t) list) -> answer -> string
(** The one response renderer. Every line opens with the envelope
    [{"v":1, "id":.., "kind":..}] (["kind"] omitted on sat lines) and
    ends with ["trace":{..}] under [~trace:true].

    sat and sat_under_doctype: [verdict, cached, tier, ms, fragment,
    states, transitions], then ["witness"] and ["verified"] when sat —
    paper notation for sat, the parseable
    {!Xpds_datatree.Data_tree.to_compact_string} syntax (conforming to
    the doctype) for sat_under_doctype — or ["reason"] when
    inconclusive, then ["degraded":true] after a degraded retry and
    ["error"] when the solve crashed. [extra_of] appends trailing
    fields to sat lines — the [--certify] CLI layer uses this for its
    per-response certificate summary, keeping the service independent
    of the certificate format.

    contains: [answer] (["holds" | "holds_bounded" | "fails" |
    "unknown"]), ["counterexample"] (compact syntax) and ["verified"]
    when it fails, ["reason"] when bounded or unknown, then [cached,
    tier, ms] and the robustness fields. This direction object is what
    an equiv line nests (see {!equiv_to_json}).

    eval: [root, count, nodes, nodes_truncated (when count > limit),
    doc_nodes, node_evals] or [error], then [cached, ms]. *)

val equiv_to_json : id:string -> ms:float -> Json.t -> Json.t -> string
(** [equiv_to_json ~id ~ms forward backward] renders an equiv line
    around two contains direction objects: [{"v":1, "id":..,
    "kind":"equiv", "equivalent":bool, "forward":{..}, "backward":{..},
    "ms":..}]. One failing direction settles [false] even when the other
    is unknown; ["equivalent"] is omitted while a needed direction is
    unknown. The shard router merges fanned-out directions through it
    too. *)

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
(** One NDJSON exchange: {!Request.of_line} (the [parse] trace span;
    the trace is admitted — and the deadline anchored — at line
    receipt), [default_timeout_ms] for requests without their own
    [timeout_ms], {!handle}, {!answer_to_json}. {b Never raises}:
    malformed JSON, schema errors, unparsable formulas and even a
    crashing solve all answer {!error_to_json}, with the id recovered
    by {!Request.id_of_line} — feeding a served socket garbage must not
    kill the server. *)

val verdict_name : Xpds_decision.Sat.verdict -> string
(** ["sat" | "unsat" | "unsat_bounded" | "unknown"]. *)
