(** Single flight over an LRU: one computation per key at a time.

    The first request to miss the cache on a key {e leads} and computes;
    requests arriving on the same key while it runs {e join} and wait
    for its outcome instead of computing it a second time. The service
    runs one flight for solver verdicts and one for eval results. *)

type 'v t
(** A flight whose leaders publish ['v] and whose cache holds the ['v]s
    it admits. *)

val create :
  ?phase_prefix:string ->
  lock:Mutex.t ->
  cache:'v Lru.t ->
  admit:('v -> bool) ->
  unit ->
  'v t
(** [lock] guards [cache] and the in-flight table (the service mutex);
    [admit] decides whether a published outcome enters the cache. The
    flight's trace spans are [cache_probe] and [flight_wait], each
    prefixed with [phase_prefix] (default [""]). *)

type 'v ticket
(** A leader's claim on a key, redeemed by {!publish}. *)

val run :
  'v t ->
  trace:Trace.t ->
  string ->
  hit:('v -> 'r) ->
  join:('v -> 'r option) ->
  lead:('v ticket -> 'r) ->
  'r
(** [run t ~trace key ~hit ~join ~lead] probes the cache (trace span
    [cache_probe]) and answers [hit v] on a hit. Otherwise, when another
    request leads on [key], it waits (span [flight_wait]) for the
    leader's outcome and answers [join v]; a leader that published
    [None], or an outcome [join] declines with [None], sends the request
    round again. Otherwise it leads: [lead ticket] computes, and must
    {!publish} the outcome before it finishes its own answer. A leader
    that raises, or returns without publishing, lands [None]. *)

val publish : 'v t -> 'v ticket -> 'v option -> unit
(** Land a leader's outcome: admit it to the cache (through [admit]),
    wake the waiters and release the key. Only the first call on a
    ticket counts. *)

val waiters : 'v t -> int
(** Requests currently waiting on a leader. The caller holds the lock. *)
