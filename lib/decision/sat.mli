(** The top-level satisfiability solver.

    Implements SAT-L (Definition 1) for every downward fragment of
    Fig. 4: classify the formula ({!Xpds_xpath.Fragment}), translate to a
    BIP automaton (Theorem 3, via the [⟨↓∗[η]⟩] wrapper so that
    acceptance means [[η]] ≠ ∅), then run the emptiness fixpoint
    (Theorem 4) — height-bounded (Theorem 6) when the fragment has the
    poly-depth model property.

    Honesty of answers: a [Sat] verdict always carries a witness tree
    (replayed through the reference semantics when [verify] is set). An
    unsatisfiability verdict is [Unsat] only when the search bounds meet
    the paper's completeness bounds (u0/t0, and the fragment's depth
    bound when height-bounded); the paper-complete branching width
    [u0 = (2|K|²+|K|+2)|K|] is astronomically conservative, so with the
    practical default width the saturated-but-not-provably-complete case
    is reported as [Unsat_bounded] — empirically reliable (cross-checked
    against {!Model_search} in the test suite) but not certified. *)

type verdict =
  | Sat of Xpds_datatree.Data_tree.t
  | Unsat  (** certified: bounds meet the paper's completeness bounds *)
  | Unsat_bounded of string
      (** fixpoint saturated under the given (smaller) bounds *)
  | Unknown of string  (** resource budget exhausted *)

type cert_seed = {
  cs_formula : Xpds_xpath.Ast.node;
      (** the simplified formula the automaton was translated from — the
          exact input of the Theorem-3 translation, so an independent
          checker re-deriving the automaton from it lands on the same
          state numbering *)
  cs_labels : Xpds_datatree.Label.t list;  (** the automaton alphabet Σ *)
  cs_width : int;
  cs_t0 : int option;
  cs_dup_cap : int option;
  cs_merge_budget : int option;
  cs_basis : Ext_state.t array option;
      (** the saturated extended-state set
          ({!Emptiness.check_with_basis}); [None] unless the fixpoint
          genuinely saturated *)
}
(** Everything {!Xpds_cert.Cert} needs to assemble a checkable
    certificate from a report. Populated only on [decide ~certificate:true]
    runs, which use the general engine with unprojected atom matrices
    (slower, but reproducible by a naive independent evaluator). *)

type report = {
  verdict : verdict;
  fragment : Xpds_xpath.Fragment.t;
  algorithm : string;  (** human-readable description of the run *)
  stats : Emptiness.stats;
  witness_verified : bool option;
      (** [Some true] iff a witness was replayed successfully through
          both the reference semantics and the BIP run *)
  automaton_q : int;  (** |Q| of the translated automaton *)
  automaton_k : int;  (** |K| of its pathfinder *)
  cert_seed : cert_seed option;
      (** certificate material; [Some] iff [certificate] was set *)
}

(** Solver options, replacing the twelve optional arguments [decide]
    had accreted. Build one by functional update from {!Options.default}
    ([{ Options.default with width = 5 }]) or with the [with_*]
    combinators ([Options.(default |> with_width 5 |> with_max_states 50_000)]).
    The search-bound fields ([width] … [max_transitions]) deliberately mirror
    {!Emptiness.config} field-for-field, with the option-typed budgets
    resolved to the practical defaults. *)
module Options : sig
  type t = {
    width : int;  (** branching bound; practical default 3 *)
    t0 : int option;
        (** description bound; default [Some 6], [None] = paper bound *)
    dup_cap : int option;
        (** duplicate-description cap; default [Some 2], [None] = paper *)
    merge_budget : int option;
        (** merging identification budget; default [Some 5] *)
    max_states : int;  (** resource budget; default 20_000 *)
    max_transitions : int;  (** resource budget; default 200_000 *)
    should_stop : (unit -> bool) option;
        (** cooperative deadline hook ({!Emptiness.config}); a fired
            deadline yields [Unknown "deadline exceeded"] *)
    on_phase : string -> unit;
        (** observability hook: invoked with ["translate"],
            ["fixpoint"], and — on a nonempty outcome —
            ["verify"], as the run enters each stage *)
    verify : bool;  (** replay the witness (default true) *)
    minimize : bool;
        (** shrink the witness with {!Witness_min.minimize} first *)
    extra_labels : Xpds_datatree.Label.t list;
        (** force labels into the automaton alphabet *)
    certificate : bool;
        (** run in certificate mode and fill
            {!field-report.cert_seed} *)
  }

  val default : t

  val with_width : int -> t -> t
  val with_t0 : int option -> t -> t
  val with_dup_cap : int option -> t -> t
  val with_merge_budget : int option -> t -> t
  val with_max_states : int -> t -> t
  val with_max_transitions : int -> t -> t
  val with_should_stop : (unit -> bool) option -> t -> t
  val with_on_phase : (string -> unit) -> t -> t
  val with_verify : bool -> t -> t
  val with_minimize : bool -> t -> t
  val with_extra_labels : Xpds_datatree.Label.t list -> t -> t
  val with_certificate : bool -> t -> t
end

val decide : ?options:Options.t -> Xpds_xpath.Ast.node -> report
(** Decide SAT (Definition 1: is [[η]]_T ≠ ∅ for some data tree T?)
    under {!Options.default} or the given options. *)

val decide_under_doctype :
  ?options:Options.t ->
  doctype:Xpds_automata.Doctype.t ->
  Xpds_xpath.Ast.node ->
  report
(** Satisfiability in the presence of a counting document type (paper
    §4.1): is there a {e conforming} data tree with a node satisfying
    η? The translation alphabet is extended to cover the rules' labels
    (so compilation cannot fail on coverage; an invalid rule set still
    raises [Invalid_argument] — validate first), the Theorem-3
    automaton is intersected with the conformance automaton
    ({!Xpds_automata.Doctype.restrict}), and emptiness runs the full
    Theorem-4 fixpoint — the Theorem-6 height shortcut is justified for
    the bare formula only, never for the intersection. A [Sat] witness
    is verified (under [options.verify]) against the reference
    semantics {e and} [Doctype.conforms]. Certificate mode is forced
    off: the basis checker replays the bare-formula automaton and has
    no doctype notion. *)

val satisfiable : ?width:int -> Xpds_xpath.Ast.node -> bool option
(** [Some b] when the verdict is [Sat]/[Unsat]/[Unsat_bounded] (the
    latter trusted as [false]); [None] on [Unknown]. *)

val decide_string : string -> (report, string) result
(** Parse (either sort, per {!Xpds_xpath.Parser.formula_of_string}) and
    decide. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
