(** Multi-process sharded serving behind the {!Xpds_service.Engine}
    seam.

    The router forks [shards] worker processes, each running its own
    {!Xpds_service.Service.t} and speaking the unmodified NDJSON v1
    protocol over a pair of pipes. Every request line is routed by its
    deterministic canonical cache key — {!Xpds_service.Request.key},
    the same kind-tagged, doctype-salted key the service caches under —
    so a given formula always lands on the same worker and the
    per-shard LRU/disk tiers never alias across kinds or doctypes. An
    [equiv] line travels whole, like every other kind, to the shard of
    its key — its forward direction's contains key — and that worker
    answers both directions through {!Xpds_service.Service.handle}, as
    the in-process engine does: one line in, one line out.

    Admission is bounded and deadline-aware ({!Xpds_service.Admission}):
    a request that cannot meet its deadline given the target shard's
    queue depth and EWMA service time is shed immediately with
    [{"v":1,"id":..,"error":"overloaded","retry_after_ms":..}] instead
    of queueing past its budget.

    Worker crashes are isolated: the router notices the closed pipe,
    answers everything in flight on that shard with structured error
    lines (echoing the id {!Xpds_service.Request.id_of_line}
    recovers), respawns the worker (same shard index, so a per-shard
    disk store is reattached), and counts the restart in the aggregated
    metrics.

    The router is single-threaded ([Unix.select] over all worker
    pipes); with [~shards:1] it forwards every line, in order, to one
    worker whose answers are the in-process [handle_line] answers —
    the bit-identical-serving gate of the load bench rests on this. *)

(** {1 Routing} *)

val shard_of_key : shards:int -> Xpds_service.Cache_key.t -> int
(** Deterministic shard index from a canonical cache key (a uniform
    MD5 digest): the first three key bytes, big-endian, mod [shards]. *)

val route_line : config_fingerprint:string -> shards:int -> string -> int
(** The shard a raw request line goes to. [sat], [contains], [equiv]
    and [sat_under_doctype] requests route by {!Xpds_service.Request.key}
    (an equiv's is its forward direction's contains key); [eval]
    requests by the digest of (source identity, canonical query); lines
    that do not parse route by a digest of the raw text (any worker
    answers the same structured error). Total — never raises. *)

(** {1 The engine} *)

val engine :
  ?queue_depth:int ->
  ?default_timeout_ms:float ->
  ?trace:bool ->
  ?chaos_crash_id:string ->
  ?make_service:(shard:int -> Xpds_service.Service.t) ->
  shards:int ->
  emit:(string -> unit) ->
  Xpds_service.Service.Config.t ->
  Xpds_service.Engine.t
(** Fork [shards] workers (each building its service via
    [make_service], default [Service.create config] — the hook is where
    [bin/main] opens per-shard disk stores and registers [--doc]
    documents, {e in the child, after the fork}) and return the router
    as an engine. [queue_depth] bounds each shard's admission queue
    (default 64). [default_timeout_ms] and [trace] are applied by the
    workers' [handle_line] and by the router's admission estimate.
    [chaos_crash_id] arms the workers' {!Xpds_service.Service.Chaos}
    hook to kill the worker process mid-solve on that request id — the
    crash-isolation tests and the load bench's crash leg use it.

    The returned engine's {!Xpds_service.Engine.wait} folds the
    caller's descriptors into the router's own select over the worker
    pipes — a serving loop must use it (not a blocking read of its
    input source) so responses are emitted the moment workers produce
    them, even while no new input arrives.

    Closing the engine closes the request pipes (workers exit on EOF),
    fails never-sent requests with structured errors, keeps draining —
    and emitting — responses until every response pipe reports EOF (so
    a worker blocked writing into a full pipe can finish and exit),
    then reaps the children; a worker that still has not exited after a
    10 s grace (wedged in a deadline-less solve) is killed. *)

(** {1 Metrics aggregation} *)

val merge_metrics : Json.t list -> Json.t
(** Merge per-worker {!Xpds_service.Metrics.to_json} snapshots into one
    aggregate: numeric fields are summed, except [*min*]/[*max*] fields
    (min/max) and latency-shape fields ([mean], [p50], [p95], [p99],
    [est_ms]) — those average over the snapshots that carry them,
    weighted by the sample count [n] of the object holding them when it
    has one (the store-verify and certificate-check means), else by
    each snapshot's top-level [requests] count, so a shard that served
    10,000 requests dominates one that served 10 (plain average when
    every weight is zero). A weighted average of per-shard
    percentiles is still an approximation of the fleet percentile, and
    the router section labels it as one ([latency_merge]). Strings and
    booleans take the first snapshot's value; objects merge recursively
    (union of keys, first-appearance order). Exposed for the unit
    tests. *)
