(** The v1 request wire: one NDJSON line decoded into one typed request.

    Every verb is one row of a single table — its wire name, its closed
    field list in wire order, and its body decoder — so the service, the
    shard router and the CLI all read requests through {!of_line}, and
    the cache-key kind tag and salt of every verb are decided in one
    place ({!key}). Schema in docs/protocol.md. *)

val protocol_version : int
(** The wire protocol version this build speaks (1). *)

(** Where an eval request's document comes from. *)
type source =
  | Doc_named of string  (** a document registered with the service *)
  | Doc_xml of string  (** inline XML source ({!Xpds_datatree.Xml_doc}) *)
  | Doc_tree of string  (** inline {!Xpds_datatree.Data_tree.of_string} syntax *)

type body =
  | Sat of Xpds_xpath.Ast.node
  | Contains of { phi : Xpds_xpath.Ast.node; psi : Xpds_xpath.Ast.node }
      (** ϕ ⊑ ψ, decided as unsatisfiability of ϕ ∧ ¬ψ (paper §4.1) *)
  | Equiv of { phi : Xpds_xpath.Ast.node; psi : Xpds_xpath.Ast.node }
      (** both {!directions} *)
  | Doctype of { formula : Xpds_xpath.Ast.node; doctype : Xpds_automata.Doctype.t }
      (** satisfiability under an already
          {!Xpds_automata.Doctype.validate}d document type *)
  | Eval of {
      query : Xpds_xpath.Ast.node;
      source : source;
      limit : int option;  (** positions returned on the wire; default 100 *)
    }

type t = {
  id : string;  (** a JSON string or number id, as text; [""] when absent *)
  timeout_ms : float option;  (** per-request deadline, anchored at admission *)
  body : body;
}

val of_line : string -> (t, string) result
(** Decode one request line. The ["kind"] field selects the table row —
    absent or ["sat"], ["eval"], ["contains"], ["equiv"],
    ["sat_under_doctype"] — and each row's schema is {e closed}. Errors
    take precedence in this order: unknown kind, unknown field (naming
    the row's accepted fields), a ["v"] other than {!protocol_version}
    (an absent ["v"] means v1), then the body's own errors (missing or
    unparsable formulas, an invalid doctype, an eval request without
    exactly one of ["doc"]/["xml"]/["tree"], a non-integer ["limit"]).
    A ["timeout_ms"] that is not a number is ignored. *)

val id_of_line : string -> string option
(** The id error lines echo: the ["id"] of a line that parses as JSON
    (a number rendered through the JSON number printer), [None] when it
    is absent, empty or unrecoverable. Never raises. *)

val directions : Xpds_xpath.Ast.node -> Xpds_xpath.Ast.node -> body * body
(** [directions phi psi] is the pair of contains bodies an equiv
    decides: ϕ ⊑ ψ (forward) and ψ ⊑ ϕ (backward). *)

type key = {
  kind : string;  (** the cache-key kind tag and store record kind *)
  scope : string;  (** the kind's salt and store scope *)
  canon : Xpds_xpath.Ast.node;  (** the canonical formula the key digests *)
  digest : Cache_key.t;
}

val key : config_fingerprint:string -> body -> key
(** What a request is cached and routed under: sat keys its formula
    with kind ["sat"]; contains keys ϕ ∧ ¬ψ with kind ["contains"] (an
    equiv is keyed as its forward direction); sat_under_doctype keys
    its formula with kind ["sat_under_doctype"] salted with
    {!Xpds_automata.Doctype.canonical_string}. For eval the key is the
    router's cache-affinity key only (kind ["eval"], salted with the
    document's source): the eval result cache keys on document content
    instead ({!Eval_verb}). *)
