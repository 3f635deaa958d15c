(** The service's eval verb: bulk evaluation over array-encoded
    documents.

    It holds the document registry, the inline-document LRU (flattened
    documents keyed by source digest), the result cache and, with each
    document, its evaluator memo. The serving machinery mirrors the
    solver verbs: an LRU result cache keyed by (document digest, query
    text, limit), single-flight deduplication of concurrent identical
    requests ({!Flight}), admission-anchored monotonic deadlines, and
    metrics ({!Metrics.record_eval}). Beyond the result cache, the
    document's evaluator {e memo} persists across requests: distinct
    queries over one document share sub-expression results, so a query
    batch pays for each distinct subformula once. Evaluations on one
    document are serialised (the memo is single-domain mutable state);
    different documents evaluate concurrently. Errors and deadline
    timeouts are never cached or shared. *)

type result = {
  root : bool;  (** does the query hold at the root? *)
  count : int;  (** |[[ϕ]]| — total satisfying nodes *)
  positions : string;
      (** the first [limit] satisfying positions, in preorder, already
          rendered as the JSON array text of the wire's ["nodes"] field
          (each position in the {!Xpds_datatree.Path.to_string}
          rendering, e.g. [["ε","0.1"]]). A result is rendered once,
          when it is computed, and kept in that form in the result
          cache: a cache hit re-renders nothing, and a cached entry is
          one short string rather than a list of int lists. *)
  truncated : bool;  (** [count > limit] *)
  doc_nodes : int;
  node_evals : int;
      (** fresh node×subformula evaluations this request added to the
          document's shared memo (0 on a pure memo replay) *)
}

type response = {
  id : string;
  result : (result, string) Stdlib.result;
      (** [Error] carries a structured reason: unknown document,
          oversized document, unparsable source, or
          ["deadline exceeded"] *)
  cached : bool;
  ms : float;
  trace : Trace.t;
}

type t

val create :
  lock:Mutex.t ->
  meters:Metrics.t ->
  max_doc_nodes:int ->
  t
(** [lock] is the service mutex; it guards the registry, the caches and
    [meters]. The result cache holds 4096 entries, the inline-document
    cache 64. *)

val register_doc : t -> name:string -> Xpds_eval.Doc.t -> (unit, string) Stdlib.result
(** Register a flattened document under [name] (replacing any previous
    binding). [Error] iff the document exceeds [max_doc_nodes]. *)

val registered_docs : t -> (string * int) list
(** The registry: [(name, node count)], sorted by name. *)

val eval :
  t ->
  trace:Trace.t ->
  id:string ->
  deadline:float option ->
  query:Xpds_xpath.Ast.node ->
  source:Request.source ->
  limit:int option ->
  response
(** Evaluate one query against one document under an absolute
    {!Trace.now_ms} deadline; [limit] defaults to 100 positions. *)
