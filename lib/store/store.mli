(** The persistent verdict store — the disk tier behind the in-memory
    LRU of {!Xpds_service.Service}.

    An append-only, CRC-framed log ({!Log}) of cache-key → verdict
    records ({!Record}), fully indexed in memory at open. The header is
    versioned on the NDJSON protocol version {e and} the solver config
    fingerprint: opening a file written under a different protocol or
    solver configuration invalidates the whole file (read-write opens
    start it afresh; read-only opens report it), while a bad CRC or a
    truncated tail — a crash mid-append — drops only the damaged
    suffix.

    {b Verify-on-load invariant}: a loaded record is never served on
    trust. On every probe the store (a) checks the record's canonical
    formula against the probing request's own canonical form and (b)
    recomputes the record's certificate fingerprint from its payload,
    comparing both before admitting the verdict; with {!verify_mode}
    [Full], a SAT record's witness tree is additionally replayed through
    the reference semantics ({!Xpds_xpath.Semantics.check_somewhere}) —
    the same check [xpds certify] runs on a SAT certificate. Any
    mismatch {e self-evicts}: the record is dropped from the index, a
    tombstone is appended so it stays dead across restarts, and the
    probe reports a miss. Corruption is detected and evicted — never
    served.

    Thread-safety: every operation takes the store's internal mutex,
    so a store can be shared across domains like the service that holds
    it. *)

type verify_mode =
  | Fingerprint
      (** formula + fingerprint comparison on every probe (default) *)
  | Full
      (** additionally replay SAT witnesses through the reference
          semantics (certificate-grade; UNSAT records carry no basis,
          so their check stays the fingerprint) *)

type t

type counters = {
  memory_hits : int;
      (** probes answered by the memory tier above this store (reported
          in by the service via {!note_memory_hit}) *)
  disk_hits : int;  (** probes answered by this store, verified *)
  misses : int;  (** probes finding no record *)
  self_evictions : int;
      (** records dropped at probe time by verify-on-load *)
  appends : int;  (** records persisted this session *)
}

type open_info = {
  records : int;  (** live records loaded into the index *)
  invalidated : bool;
      (** the existing file was discarded: bad magic/header, or a
          protocol/config version mismatch *)
  recovered_bytes : int;
      (** damaged suffix dropped at open (0 on a clean file) *)
  sessions : int;  (** per-session counter frames found ({!close}) *)
}

val open_rw :
  ?verify:verify_mode ->
  path:string ->
  protocol_version:int ->
  config_fingerprint:string ->
  unit ->
  (t * open_info, string) result
(** Open (or create) a store for reading and appending. An existing
    file whose header doesn't carry exactly [protocol_version] and
    [config_fingerprint] is invalidated and restarted empty
    ([invalidated = true]). *)

val open_ro : ?verify:verify_mode -> string -> (t * open_info, string) result
(** Open an existing store read-only under whatever header it carries
    ({!probe} still verifies, but self-evictions are not persisted and
    {!admit} refuses). [Error] when the file is missing/unreadable or
    its header is invalid. *)

type probe_result =
  | Hit of Xpds_decision.Sat.report * float
      (** verified record, rebuilt as a servable report; the float is
          the verify-on-load latency in ms *)
  | Miss
  | Evicted of string * float
      (** a record existed but failed verification and was self-evicted
          (reason, verify latency ms); callers treat this as a miss *)

val probe :
  ?kind:string ->
  ?scope:string ->
  t ->
  key:string ->
  canon:Xpds_xpath.Ast.node ->
  probe_result
(** Look up [key] (the hex cache key) for a request whose canonical
    formula is [canon]. [kind] (default ["sat"]) and [scope] (default
    [""]; the canonical doctype rendering for [sat_under_doctype]) must
    match the record's own — a mismatch self-evicts like any other
    verification failure. *)

val admit :
  ?kind:string ->
  ?scope:string ->
  t ->
  key:string ->
  canon:Xpds_xpath.Ast.node ->
  Xpds_decision.Sat.report ->
  bool
(** Persist a freshly solved report under [key], tagged with the
    request [kind]/[scope] it answers. [false] (and no write) when the
    store is read-only, the key is already present, or the report
    carries no persistable verdict. The caller is responsible for
    cacheability (deadline/crash verdicts must not reach the store). *)

val note_memory_hit : t -> unit
(** Count a request answered by the memory tier above this store, so
    the per-session counter frame has all three tiers. *)

val counters : t -> counters
val length : t -> int
(** Live records in the index. *)

val bytes_on_disk : t -> int
val path : t -> string
val config_fingerprint : t -> string

val close : t -> unit
(** Append a per-session counter frame (read-write stores with
    activity) and release the file. Idempotent. *)

(* --- snapshots and offline inspection --- *)

type export_info = {
  exported : int;
  skipped : int;  (** records failing their own fingerprint self-check *)
  snapshot_bytes : int;
}

val export : src:string -> dst:string -> (export_info, string) result
(** Compact [src] into a fresh snapshot [dst]: one record per live key
    (tombstoned and superseded records dropped, session frames
    dropped), each re-verified against its own fingerprint before
    export, sorted by key for deterministic bytes. The snapshot carries
    [src]'s header verbatim. *)

val import_into : snapshot:string -> store_path:string -> (int, string) result
(** Append the snapshot's live records into the store at [store_path]
    (created with the snapshot's header when absent), skipping keys the
    store already has. [Error] when either header is unreadable or the
    two disagree on protocol/config — a stale snapshot never pollutes a
    live store. Returns the number of records appended. *)

type file_stats = {
  fs_protocol : int;
  fs_config : string;
  fs_file_bytes : int;
  fs_dropped_bytes : int;
  fs_live : int;  (** live records (after tombstones/supersessions) *)
  fs_record_frames : int;
  fs_tombstones : int;
  fs_sessions : int;
  fs_verdicts : (string * int) list;
      (** live records per verdict name, sorted *)
  fs_totals : counters;  (** summed across all session frames *)
}

val file_stats : string -> (file_stats, string) result
(** Offline inspection of a store or snapshot file — no server, no
    solver config needed ([xpds cache stats]). *)
