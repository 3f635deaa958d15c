(** Per-request phase tracing on a monotonic clock.

    A trace is created when a request is {e admitted} (enters the
    service, or is read off the wire) and accumulates a flat sequence of
    named spans: [parse], [canonicalize], [cache_probe], [store_probe],
    [solve] and the solver's own sub-phases ([translate], [fixpoint],
    [verify], …), [flight_wait] when the request joined an in-flight
    computation, [certificate]. The admission timestamp doubles as the
    anchor of the request's deadline ({!Service}): a request burns its
    budget while it waits on a flight, so it can never exceed its
    caller-visible deadline.

    All timestamps come from {!now_ms} — [CLOCK_MONOTONIC], immune to
    wall-clock steps — and are in milliseconds. A trace is owned by one
    request and mutated only by the domain advancing that request, so
    it needs no lock. *)

type t

val now_ms : unit -> float
(** Monotonic time in milliseconds since an arbitrary origin
    ([clock_gettime(CLOCK_MONOTONIC)]); only differences are
    meaningful. *)

val create : unit -> t
(** A fresh trace anchored now (= the admission instant). *)

val admitted : t -> float
(** The {!now_ms} timestamp the trace was created at. Deadlines are
    [admitted t +. timeout_ms]. *)

val elapsed_ms : t -> float
(** Milliseconds since admission. *)

val mark : t -> string -> unit
(** [mark t name] closes the currently open span (if any) and opens a
    new one called [name]. Spans are flat — marking is how one phase
    ends and the next begins. *)

val finish : t -> unit
(** Close the open span, if any. Idempotent. *)

val add_ms : t -> string -> float -> unit
(** Append an externally measured span (e.g. a certificate check timed
    by the CLI layer) without touching the open span. *)

val spans : t -> (string * float) list
(** Completed spans in chronological order of first occurrence,
    repeated names summed (a retried phase reports its total). *)

val iter_spans : (string -> float -> unit) -> t -> unit
(** Every completed span, most recent first, repeated names not summed:
    the allocation-free walk for accumulating totals. *)

val to_json : t -> Json.t
(** [{"total_ms": .., "phases": {"canonicalize": .., ...}}] — durations
    rounded to microseconds. *)
