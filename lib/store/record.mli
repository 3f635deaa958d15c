(** One persisted verdict: the unit of the on-disk store.

    A record is the cacheable core of a {!Xpds_decision.Sat.report} —
    the verdict (with its witness tree or reason), the canonical formula
    it answers, and the run's headline statistics — plus a
    {e certificate fingerprint} in the style of {!Xpds_cert.Cert}: an
    MD5 digest binding every payload field to the canonical formula
    rendering. A loaded record is only trusted after the fingerprint is
    {e recomputed from the probing request's own canonical formula} and
    compared ({!Store}): a record transplanted under a different key, or
    with any doctored field, fails the comparison even when its frame
    CRC is intact. *)

type verdict =
  | Sat of Xpds_datatree.Data_tree.t  (** with its witness tree *)
  | Unsat
  | Unsat_bounded of string
  | Unknown of string
      (** budget-limited unknowns are deterministic and cacheable;
          deadline/crash unknowns never reach the store *)

type t = {
  key : string;  (** the cache key, hex — the index the store probes *)
  kind : string;
      (** the request verb the record answers: ["sat"], ["contains"],
          or ["sat_under_doctype"] — bound by the fingerprint so a
          record can never be replayed as a different verb *)
  scope : string;
      (** the kind's extra salt — the canonical doctype rendering for
          [sat_under_doctype], [""] otherwise *)
  formula : string;
      (** canonical concrete syntax ({!Xpds_xpath.Pp.node_to_string} of
          the {!Xpds_xpath.Rewrite.canonical} form) *)
  verdict : verdict;
  fragment : string;  (** {!Xpds_xpath.Fragment.name}, informational *)
  algorithm : string;
  automaton_q : int;
  automaton_k : int;
  n_states : int;
  n_transitions : int;
  n_mergings : int;
  max_height : int;
  witness_verified : bool option;
  fingerprint : string;
      (** hex MD5 binding all fields above to [formula] *)
}

val fingerprint : t -> string
(** Recompute the certificate fingerprint from the record's own fields
    (ignoring its stored [fingerprint]). A well-formed record satisfies
    [fingerprint r = r.fingerprint]. *)

val of_report :
  ?kind:string ->
  ?scope:string ->
  key:string ->
  canon:Xpds_xpath.Ast.node ->
  Xpds_decision.Sat.report ->
  t option
(** Build a record from a freshly solved report. [None] when the report
    is not persistable (a [Sat] whose witness the caller should have —
    always present — or nothing else; in practice always [Some] for
    cacheable reports). *)

val to_report : canon:Xpds_xpath.Ast.node -> t -> Xpds_decision.Sat.report
(** Rebuild a servable report. The fragment is re-classified from
    [canon] (authoritative), the memo replay count is zeroed (no
    fresh fixpoint ran), and [cert_seed] is [None]. *)

val verdict_name : t -> string
(** ["sat" | "unsat" | "unsat_bounded" | "unknown"]. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
