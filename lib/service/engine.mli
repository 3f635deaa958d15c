(** The transport-agnostic serving seam.

    An engine consumes NDJSON v1 request lines and emits NDJSON v1
    response lines through a caller-supplied sink. Both the in-process
    {!Service.t} (wrapped by {!in_process}) and the multi-process shard
    router implement this interface, so the [serve] loop, the batch
    driver, and the load harness are written once against [t] and run
    unchanged on either topology.

    The seam is deliberately asynchronous-capable: {!submit} hands a
    request line to the engine and may return before the response has
    been emitted (the shard router forwards it to a worker process).
    {!pump} drives pending I/O without blocking; {!drain} blocks until
    every submitted request has been answered. A synchronous engine —
    the in-process service — answers inside [submit], and its [pump]
    and [drain] are no-ops, which is why code written against the
    asynchronous contract degrades gracefully to it. *)

type t

val make :
  submit:(string -> unit) ->
  ?pump:(unit -> unit) ->
  ?drain:(unit -> unit) ->
  ?pending:(unit -> int) ->
  ?wait:(Unix.file_descr list -> float -> Unix.file_descr list) ->
  ?metrics_json:(unit -> Json.t option) ->
  ?close:(unit -> unit) ->
  unit ->
  t
(** Assemble an engine from its operations. Omitted hooks default to
    no-ops ([pending] to [fun () -> 0], [metrics_json] to
    [fun () -> None], [wait] to a plain [Unix.select] over the caller's
    descriptors — right for synchronous engines with no internal I/O). *)

val submit : t -> string -> unit
(** Hand one NDJSON request line to the engine. Responses (or
    structured error lines) surface through the engine's emit sink, in
    submission order for the in-process engine and the single-shard
    router. Never raises on malformed input — the engine answers a
    structured error line instead. *)

val pump : t -> unit
(** Make progress on pending I/O without blocking (no-op for
    synchronous engines). The open-loop load generator calls this
    between arrivals. *)

val drain : t -> unit
(** Block until every submitted request has been answered. *)

val pending : t -> int
(** Requests submitted but not yet answered. *)

val wait : t -> ?read_fds:Unix.file_descr list -> float -> Unix.file_descr list
(** [wait t ~read_fds timeout] blocks (up to [timeout] seconds,
    negative = indefinitely) until the engine has internal I/O to do or
    one of [read_fds] turns readable — whichever comes first — performs
    the engine's I/O, and returns the readable subset of [read_fds].
    This is how a serving loop multiplexes its own input source with an
    asynchronous engine's responses: selecting on stdin alone while a
    shard router holds finished answers in its worker pipes would
    deadlock a synchronous client that waits for each reply before
    sending the next line. For synchronous engines this is a plain
    select on [read_fds]. *)

val metrics_json : t -> Json.t option
(** The metrics JSON: {!Service.metrics} for the in-process engine, the
    cross-worker merge ({!Xpds_shard.Shard.merge_metrics}) plus a
    ["router"] section for the shard router. *)

val close : t -> unit
(** Release engine resources (shut down worker processes, close
    stores). Idempotent. *)

val in_process :
  ?default_timeout_ms:float ->
  ?trace:bool ->
  ?extra_of:(Service.response -> (string * Json.t) list) ->
  emit:(string -> unit) ->
  Service.t ->
  t
(** The synchronous engine over an in-process service: [submit] calls
    {!Service.handle_line} and feeds the answer to [emit] before
    returning. [default_timeout_ms], [trace] and [extra_of] are passed
    through to [handle_line]. Closing the engine does {e not} close a
    store the service was created over — the caller owns it. *)
