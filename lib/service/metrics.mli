(** Service counters and latency statistics.

    A mutable accumulator fed by {!Service} on every completed request
    (guarded by the service mutex — not thread-safe on its own), and an
    immutable {!snapshot} view with derived aggregates. Percentiles are
    computed over a bounded ring of the most recent {!window} latencies,
    so a long-lived server's memory stays constant; min/max/mean are
    exact over the full lifetime. *)

type t

type snapshot = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  sat : int;
  unsat : int;
  unsat_bounded : int;
  unknown : int;
  deadline_timeouts : int;
      (** the subset of [unknown] caused by a fired deadline *)
  latency_min_ms : float;  (** 0 when no request was recorded *)
  latency_mean_ms : float;
  latency_p95_ms : float;  (** over the last {!window} requests *)
  latency_max_ms : float;
  fixpoint_states : int;  (** summed {!Xpds_decision.Emptiness.stats} *)
  fixpoint_transitions : int;
  fixpoint_mergings : int;
  certified : int;  (** certificate checks that passed *)
  cert_check_failures : int;  (** certificate checks that were rejected *)
  cert_latency_mean_ms : float;  (** mean certificate-check latency *)
  cert_latency_max_ms : float;
  single_flight : int;
      (** the subset of [cache_hits] that joined an in-flight
          computation instead of probing the cache *)
  crashes : int;
      (** requests whose solve raised and was isolated into an error
          response *)
  disk_hits : int;
      (** the subset of [cache_hits] answered by the persistent store
          ({!Xpds_store.Store}) after verify-on-load — the disk tier;
          [cache_hits - disk_hits] is the memory tier, [cache_misses]
          the solve tier *)
  store_self_evictions : int;
      (** store records that failed verify-on-load at probe time and
          were dropped (tombstoned) instead of served *)
  store_appends : int;
      (** freshly solved verdicts persisted to the store this session *)
  store_verify_mean_ms : float;
      (** mean verify-on-load latency across disk probes that found a
          record (hits and self-evictions) *)
  store_verify_max_ms : float;
  sat_requests : int;
      (** requests of kind [sat] — solver verdicts ({!record}) *)
  eval_requests : int;
      (** requests of kind [eval] — bulk document evaluation
          ({!record_eval}); [requests] is the sum over all kinds *)
  contains_requests : int;
      (** requests of kind [contains] ({!record} with [`Contains]) —
          including the two directions of every [equiv] request, which
          are containment solves sharing the contains cache entries *)
  equiv_requests : int;
      (** wire-level [equiv] requests ({!record_equiv}); each is also
          counted as two [contains] solves *)
  doctype_requests : int;
      (** requests of kind [sat_under_doctype] ({!record} with
          [`Doctype]) *)
  eval_cache_hits : int;
      (** the subset of [cache_hits] coming from the eval result cache *)
  eval_errors : int;
      (** eval requests answered with a structured error (unknown
          document, oversized document, unparsable source) — deadlines
          are counted separately *)
  eval_deadline_timeouts : int;
      (** eval requests cut short by their admission-anchored deadline *)
  eval_node_evals : int;
      (** node×subformula evaluations performed by uncached eval
          requests (the work unit of {!Xpds_eval.Eval.node_evals}) *)
  eval_docs_built : int;
      (** documents flattened to array form: registry registrations plus
          inline-document cache misses *)
  phases_ms : (string * float) list;
      (** total milliseconds spent per {!Trace} phase, sorted by phase
          name *)
}

val window : int
(** Size of the latency ring used for percentiles (4096). *)

val create : unit -> t

val record :
  ?kind:[ `Sat | `Contains | `Doctype ] ->
  t ->
  verdict:Xpds_decision.Sat.verdict ->
  cached:bool ->
  ms:float ->
  stats:Xpds_decision.Emptiness.stats ->
  unit
(** Count one completed solver-verdict request. [kind] (default [`Sat])
    selects which per-kind counter the request lands in; everything
    else (verdict, tier, latency, fixpoint aggregates) is shared. *)

val record_eval :
  t ->
  outcome:[ `Ok | `Error | `Deadline ] ->
  cached:bool ->
  ms:float ->
  node_evals:int ->
  unit
(** Count one completed eval-kind request. Shares the request total and
    the latency distribution with solver requests; keeps its own
    kind/outcome counters. Per-phase eval timings flow in through
    {!record_trace} (the [eval_*] spans). *)

val record_doc_built : t -> unit
(** Count one document flattened into array form. *)

val record_equiv : t -> unit
(** Count one wire-level [equiv] request (its two containment directions
    are recorded separately through {!record}). *)

val record_disk_hit : t -> verify_ms:float -> unit
(** Count one request answered from the persistent store's disk tier;
    [verify_ms] is the verify-on-load latency. The request itself is
    still counted through {!record} with [cached = true] — this marks
    which tier the hit came from. *)

val record_store_self_eviction : t -> verify_ms:float -> unit
(** Count one store record dropped by verify-on-load. *)

val record_store_append : t -> unit
(** Count one verdict persisted to the store. *)

val record_single_flight : t -> unit
(** Count one request that was served by joining an in-flight solve. *)

val record_crash : t -> unit
(** Count one isolated solver crash (an error response was served). *)

val record_trace : t -> Trace.t -> unit
(** Fold a completed request's phase spans into the per-phase totals. *)

val record_cert : t -> ok:bool -> ms:float -> unit
(** Count one certificate check (kept apart from request latencies; the
    caller supplies the outcome, so this layer stays agnostic of the
    certificate format — {!Xpds_cert} sits above the service). *)

val snapshot : t -> snapshot
val reset : t -> unit
val to_json : snapshot -> Json.t
