(** Bounded, deadline-aware admission control with load shedding.

    One [t] guards one serving queue (in the sharded topology, one per
    worker shard). Admission is checked {e before} a request is
    enqueued: a request is shed immediately — with a structured
    [overloaded] error and a retry-after hint — when either

    - the queue is already at its depth bound, or
    - the request carries a deadline that provably cannot be met: with
      [d] requests already queued and an EWMA estimate [e] of
      per-request service time, the request would complete around
      [now + (d + 1) * e], and that lands past its admission-anchored
      deadline.

    Shedding at admission rather than at dequeue keeps the queue from
    filling with requests that will only ever time out ("queue past the
    budget"), which is what turns overload into a latency cliff. All
    times are monotonic milliseconds ({!Trace.now_ms}). Not
    thread-safe; callers serialize access (the shard router is
    single-threaded). *)

type t

val create : ?max_depth:int -> unit -> t
(** [max_depth] bounds the number of in-flight-or-queued requests
    (default 64). *)

type verdict =
  | Admit
  | Shed of { retry_after_ms : float }
      (** hint: how long until the queue has likely drained enough for
          a retry of the same request to be admitted *)

val check : t -> now_ms:float -> deadline_ms:float option -> verdict
(** Admission decision for a request arriving at [now_ms] whose
    absolute monotonic deadline is [deadline_ms] (none = no deadline,
    only the depth bound applies). [check] does not change queue state
    (a [Shed] bumps the shed counter): on [Admit] the caller must follow
    with {!enqueue}. *)

val enqueue : t -> unit
(** Record one admitted request entering the queue. *)

val complete : t -> service_ms:float -> unit
(** Record one request leaving the queue; [service_ms] is the time the
    server actually spent on it (excluding queueing), which feeds the
    EWMA service-time estimate. *)

val abandon : t -> unit
(** Record one admitted request leaving the queue without completing
    (e.g. its worker died); decrements depth without polluting the
    service-time estimate. *)

val depth : t -> int
(** Requests currently admitted and not yet completed. *)

val estimate_ms : t -> float
(** Current EWMA per-request service-time estimate (0 until the first
    completion). *)

val shed_count : t -> int
(** Requests shed since [create]. *)

val to_json : t -> Json.t
(** Snapshot for the metrics aggregate:
    [{"depth":..,"max_depth":..,"shed":..,"est_ms":..}]. *)
