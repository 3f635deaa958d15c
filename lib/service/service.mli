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
      (counted separately as ["single_flight"] in {!metrics}). Only
      deterministic (cacheable) verdicts are shared: if the leader times
      out or crashes, each waiter retries under its own deadline;
    - {b monotonic, admission-anchored deadlines}: [timeout_ms] arms the
      cooperative [should_stop] hook of
      {!Xpds_decision.Emptiness.config} against
      [CLOCK_MONOTONIC] ({!Trace.now_ms} — immune to wall-clock steps),
      with the budget anchored at the request's {e admission}: a request
      burns its budget while it waits on a flight and can never exceed
      its caller-visible deadline. A fired deadline yields
      [Unknown "deadline exceeded"] — never a wrong certified verdict —
      and such time-dependent results are {e not} cached (every
      deterministic verdict, including budget-limited [Unknown]s, is);
    - {b crash isolation}: a request whose solve raises is folded into
      an [Unknown "crash: ..."] error report (never cached, surfaced as
      an ["error"] field on the wire); the requests after it are served
      as usual;
    - {b per-request tracing} ({!Trace}): every response carries phase
      timings (parse → canonicalize → cache probe →
      translate/fixpoint/verify → certificate) plus flight-wait,
      aggregated per-phase into {!Metrics};
    - {b metrics} ({!Metrics}): request/hit/verdict counters, latency
      min/mean/p95/max, fixpoint-stats aggregates, robustness counters.

    A service value is safe to share across domains a library caller
    spawns: the cache, the in-flight table and the metrics are guarded
    by one internal mutex, held only around O(1) bookkeeping — solving
    happens outside it. [xpds serve] and [xpds batch] call {!handle}
    once per request, one after another; multi-core serving runs one
    service per forked shard ({!Xpds_shard.Shard}).

    Caveat on shared flights: a waiter blocks until the leader lands,
    even past its own deadline when the leader's is longer (the shared
    verdict is deterministic, so this only ever trades latency, never
    honesty); a waiter whose budget died waiting then answers
    [Unknown "deadline exceeded"] immediately.

    The eval verb's registry, caches and evaluator memo live in
    {!Eval_verb}, which the service holds. *)

(** The one construction seam of a service: a plain record built from
    {!Config.default} with [with_*] combinators. Every construction
    site — [serve], [batch], the benches, the shard workers, the tests —
    goes through {!create} on a [Config.t]; there is no
    optional-argument entrypoint. *)
module Config : sig
  type solver = Xpds_decision.Sat.Options.t
  (** The options every solve runs under, with the request's deadline
      and trace hooks set per request. Part of the cache key, so
      changing them never serves stale verdicts. In certificate mode
      reports carry a {!Xpds_decision.Sat.cert_seed} from which
      {!Xpds_cert.Cert} builds a checkable certificate. *)

  type t = {
    solver : solver;
    cache_capacity : int;  (** LRU entries; default 4096 *)
    max_doc_nodes : int;
        (** admission bound for eval documents (inline or registered);
            larger documents answer a structured error. Default
            200_000. *)
  }

  val default_solver : solver
  (** {!Xpds_decision.Sat.Options.default}. *)

  val default : t

  (** Combinators over the solver knobs. *)

  val with_width : int -> t -> t
  val with_max_states : int -> t -> t
  val with_max_transitions : int -> t -> t
  val with_certificate : bool -> t -> t

  (** Combinators over the serving knobs. *)

  val with_cache_capacity : int -> t -> t
  val with_max_doc_nodes : int -> t -> t

  val fingerprint : solver -> string
  (** The cache-key configuration fingerprint of a solver config
      ({!Xpds_decision.Sat.Options.fingerprint}) — the string both
      {!Cache_key.make} and the store header versioning are keyed on. It
      leads with {!Xpds_decision.Sat.rules_version}, so a cache or store
      written under other verdict rules never hits. *)
end

type response = {
  id : string;
  report : Xpds_decision.Sat.report;
  cached : bool;
      (** served without a fresh solve: from the result cache or by
          joining an in-flight computation *)
  tier : string;
      (** which tier answered: ["memory"] (the in-process caches —
          including flight joins), ["disk"] (the
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
    of ϕ ∧ ¬ψ (paper §4.1); a [Fails] counterexample has been replayed
    through {!Xpds_decision.Semantics} before entering any cache. An equiv runs its forward direction on
    the caller's trace under the full [timeout_ms] and its backward
    direction with whatever budget remains; both share the contains
    cache with direct contains requests. [?trace] threads in a
    pre-admitted trace (e.g. one that already carries the wire-parse
    span and anchors the deadline at line receipt); by default a fresh
    one is created on entry. *)

val contains_answer : response -> Xpds_decision.Containment.answer
(** The containment reading of a contains direction: [Sat w ↦ Fails w],
    [Unsat ↦ Holds], [Unsat_bounded ↦ Holds_bounded],
    [Unknown ↦ Unknown]. *)

val holds : response -> bool option
(** The yes/no reading of a contains direction: [Some true] when it
    holds (certified or bounded), [Some false] when it fails, [None]
    when unknown. *)

val equivalent : forward:response -> backward:response -> bool option
(** The verdict of an equiv from its two directions: [Some false] as
    soon as one direction fails (even when the other is unknown),
    [Some true] when both hold (certified or bounded), [None] while a
    needed direction is unknown. *)

val register_doc :
  t -> name:string -> Xpds_eval.Doc.t -> (unit, string) result
(** Register a flattened document under [name] (replacing any previous
    binding) so eval requests can address it as [{"doc": name}].
    [Error] iff the document exceeds [max_doc_nodes]. *)

val registered_docs : t -> (string * int) list
(** The registry: [(name, node count)], sorted by name. *)

val metrics : t -> Json.t
(** The {!Metrics.to_json} object of this service, built under the
    service mutex. *)

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
    inconclusive, then ["error"] when the solve crashed. [extra_of]
    appends trailing fields to sat lines — the [--certify] CLI layer
    uses this for its per-response certificate summary, keeping the
    service independent of the certificate format.

    contains: [answer] (["holds" | "holds_bounded" | "fails" |
    "unknown"]), ["counterexample"] (compact syntax) and ["verified"]
    when it fails, ["reason"] when bounded or unknown, then [cached,
    tier, ms] and the robustness fields. This direction object is what
    an equiv line nests.

    equiv: [equivalent] (see {!equivalent}; omitted while a needed
    direction is unknown), then ["forward"] and ["backward"] — one
    contains direction object each — and [ms], which spans both.

    eval: [root, count, nodes, nodes_truncated (when count > limit),
    doc_nodes, node_evals] or [error], then [cached, ms]. *)

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
