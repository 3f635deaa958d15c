(** Service counters and latency statistics.

    A mutable accumulator fed by {!Service} on every completed request
    (guarded by the service mutex — not thread-safe on its own), read
    through one view, {!to_json}, which also computes the derived
    aggregates. Percentiles are computed over a bounded ring of the 4096
    most recent latencies, so a long-lived server's memory stays
    constant; min/max/mean are exact over the full lifetime. *)

type t

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

val to_json : t -> Json.t
(** The metrics object that [--stats], the shard workers and
    {!Engine.metrics_json} report: counters, the per-kind and per-tier
    breakdowns, per-phase totals (milliseconds, sorted by phase name,
    rounded to microseconds), latency min/mean/p95/max (min is 0 before
    the first request), fixpoint aggregates, and the store-verify and
    certificate-check latencies, each with its sample count [n]. Every
    key, its meaning and the shard router's merge rule for it are listed
    in docs/protocol.md, "Metrics JSON". *)
