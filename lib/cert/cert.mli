(** Checkable certificates for satisfiability verdicts.

    A certificate makes a solver verdict auditable without trusting the
    solver: a SAT verdict ships its witness data tree and is replayed
    through the reference XPath semantics; an UNSAT verdict ships the
    saturated extended-state basis of the emptiness fixpoint together
    with the search bounds, and is re-checked for {e inductive closure}
    by a deliberately naive transition evaluator ({!Naive}) that shares
    no code with the engine's optimized one.

    Soundness argument (DESIGN.md §7): if every height-1 state lies in
    the basis, every transition from basis states (all child
    combinations up to the recorded width, all mergings within the
    recorded budget, all labels) lands back in the basis, and no basis
    member is accepting, then no tree within those bounds is accepted —
    i.e. the formula is unsatisfiable under the recorded bounds, and
    unconditionally when the bounds meet the paper's completeness bounds
    ({!Xpds_decision.Bounds.paper_complete}: [width ≥ (2|K|²+|K|+2)|K|],
    [t0 ≥ 2|K|²+2], no duplicate cap, no merging budget). The fingerprint binds the certificate to its
    formula (canonical rendering, {!Xpds_service.Cache_key}), its
    bounds, and its alphabet, so a certificate cannot be replayed
    against a different instance or a tampered label list. *)

type bounds = Xpds_decision.Bounds.t = {
  width : int option;
  t0 : int option;
  dup_cap : int option;
  merge_budget : int option;
}
(** The search bounds the basis was saturated under, as the engine ran
    them. [width] is always [Some]: {!of_report} records the width the
    search ran at, and the reader rejects a [null] width. A [None] t0
    is [null] in JSON and reads as the paper's [t0]; a [None] cap is
    [null] and reads as no cap. *)

type payload =
  | Sat_cert of Xpds_datatree.Data_tree.t  (** the witness tree *)
  | Unsat_cert of {
      bounds : bounds;
      q_card : int;  (** |Q| of the automaton, pinned for deserialization *)
      k_card : int;  (** |K| of the pathfinder *)
      basis : Xpds_decision.Ext_state.t array;
          (** the saturated extended-state set, in discovery order (the
              checker replays child combinations in this order) *)
    }

type t = {
  formula : string;
      (** the simplified formula, concrete syntax (round-trips through
          the parser) *)
  labels : string list;  (** the automaton alphabet Σ, as label names *)
  fingerprint : string;
      (** hex digest binding formula (canonical form), bounds, and
          alphabet *)
  payload : payload;
}

type verdict =
  | Cert_sat  (** witness replays through the reference semantics *)
  | Cert_unsat  (** inductive basis, bounds meet the paper's *)
  | Cert_unsat_bounded of string
      (** inductive basis under the recorded practical bounds only *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Emission} *)

val of_report : Xpds_decision.Sat.report -> (t, string) result
(** Build a certificate from a report produced by
    [Sat.decide ~certificate:true]. [Error] when the report carries no
    seed (certificate mode off), the verdict is UNKNOWN, or the
    fixpoint did not genuinely saturate (no inductive basis exists). *)

(** {1 Checking} *)

val check : ?work_budget:int -> t -> (verdict, string) result
(** Verify a certificate independently of the engine that produced it.

    SAT: recompute the fingerprint and replay the witness through
    {!Xpds_xpath.Semantics.check_somewhere}. UNSAT: rebuild the
    automaton from the recorded formula and alphabet, then check with
    the naive evaluator that (a) no basis state is accepting, (b) every
    leaf state is in the basis, and (c) every combination of basis
    states (width, mergings, labels within the recorded bounds) only
    produces basis states. [Error] means the certificate was rejected
    (or, explicitly so in the message, the [work_budget] — a cap on
    naive transition evaluations, default 2,000,000 — was exhausted
    before a conclusion). *)

(** {1 Serialization} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result
val to_file : string -> t -> unit
val of_file : string -> (t, string) result
