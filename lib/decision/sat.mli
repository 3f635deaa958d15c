(** The top-level satisfiability solver.

    Implements SAT-L (Definition 1) for every downward fragment of
    Fig. 4: classify the formula ({!Xpds_xpath.Fragment}), translate to a
    BIP automaton (Theorem 3, via the [⟨↓∗[η]⟩] wrapper so that
    acceptance means [[η]] ≠ ∅), then run the emptiness fixpoint
    (Theorem 4): the exact data-free union closure when the automaton is
    {!Emptiness.data_free}, otherwise the general engine, height-bounded
    (Theorem 6) when the fragment has the poly-depth model property.

    Honesty of answers: a [Sat] verdict always carries a witness tree
    (replayed through the reference semantics when [verify] is set).
    Every path runs one engine call, and the verdict is the
    {!Emptiness.outcome} one to one: [Empty] is [Unsat], [Bounded_empty]
    is [Unsat_bounded] with {!Bounds.reason}. So the data-free union
    closure (and the data-free relaxation) answers [Unsat], and the
    general engine answers [Unsat] only when its bounds meet the paper's
    ({!Bounds.paper_complete}; a height-bounded search counts as
    complete at the fragment's depth bound). [u0 = (2|K|²+|K|+2)|K|] is
    astronomically conservative, so at the practical default width it
    reports [Unsat_bounded] — cross-checked against {!Model_search} in
    the test suite, but not certified. *)

type verdict =
  | Sat of Xpds_datatree.Data_tree.t
  | Unsat  (** unconditional: data-free, or under the paper's bounds *)
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
  cs_bounds : Bounds.t;
      (** the bounds the search ran under, its width resolved
          ({!Bounds.width}): always [Some] *)
  cs_basis : Ext_state.t array option;
      (** the saturated extended-state set ({!Emptiness.answer}); [None]
          unless the fixpoint genuinely saturated *)
}
(** Everything {!Xpds_cert.Cert} needs to assemble a checkable
    certificate from a report. Populated only on [decide ~certificate:true]
    runs, which use the general engine with unprojected atom matrices
    (slower, but reproducible by a naive independent evaluator), or
    answer [Sat] from the witness lift with no basis. *)

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

(** Solver options. Build one by functional update from
    {!Options.default} ([{ Options.default with max_states = 50_000 }])
    or with the [with_*] combinators
    ([Options.(default |> with_width 5 |> with_max_states 50_000)]). *)
module Options : sig
  type t = {
    bounds : Bounds.t;
        (** the general engine's bounds; default {!Bounds.default} *)
    max_states : int;  (** resource budget; default 20_000 *)
    max_transitions : int;  (** resource budget; default 200_000 *)
    should_stop : (unit -> bool) option;
        (** cooperative deadline hook ({!Emptiness.config}); a fired
            deadline yields [Unknown "deadline exceeded"] *)
    on_phase : string -> unit;
        (** observability hook: invoked with ["translate"],
            ["fixpoint"], ["lift"] and — on a nonempty outcome of the
            general engine — ["verify"], as the run enters each stage *)
    verify : bool;  (** replay the witness (default true) *)
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
  val with_extra_labels : Xpds_datatree.Label.t list -> t -> t
  val with_certificate : bool -> t -> t

  val fingerprint : t -> string
  (** The configuration fingerprint of the options, as cache keys and
      stores use it: {!rules_version}, the bounds, the budgets, [verify],
      [certificate] and any forced labels
      (["r3;w3;t0=6;dup=2;mb=5;ms=20000;mt=200000;v=true;c=false"] for
      {!default}). The per-run hooks [should_stop] and [on_phase] are
      not part of it. *)
end

val decide : ?options:Options.t -> Xpds_xpath.Ast.node -> report
(** Decide SAT (Definition 1: is [[η]]_T ≠ ∅ for some data tree T?)
    under {!Options.default} or the given options.

    When η has a data test, [decide] first decides the simplified
    {!data_free_relaxation} η′ of η with the exact union closure, under
    the same budgets and [should_stop]. Every model of η is a model of
    η′, so:
    - If η′ is empty, so is η: outside certificate mode the report is
      [Unsat], with the stats and automaton sizes of η′'s search, η's
      fragment, and the algorithm ["data-free relaxation: data-free
      union closure"]. (Certificate mode needs a basis of η's own
      automaton, so there the general engine runs.)
    - If η′ has a witness, {!Lift.search} looks for data that make its
      skeleton a model of η. A hit is [Sat], replayed through the
      reference semantics and η's automaton ([witness_verified = Some
      true]), with the stats and automaton sizes of η′'s search and
      the algorithm ["data-free relaxation: witness lift"]; in
      certificate mode its seed has no basis.
    - Otherwise the general engine runs on η with its full budgets,
      exactly as {!general_search} describes.

    The phases: ["translate"], ["fixpoint"], then — when η′ did not
    answer — ["translate"] again, ["lift"] when η′ has a witness, and
    the general engine's ["fixpoint"] and ["verify"]. *)

val data_free_relaxation : Xpds_xpath.Ast.node -> Xpds_xpath.Ast.node
(** The data-free relaxation η′ of η: every positive [α ~ β] becomes
    [⟨α⟩ ∧ ⟨β⟩] and every negative one [⊥], with the polarity tracked
    through negations and into path filters and guards. Every node that
    satisfies η on a data tree satisfies η′, so η′ unsatisfiable implies
    η unsatisfiable. *)

val general_search :
  ?options:Options.t ->
  Xpds_xpath.Ast.node ->
  Xpds_automata.Bip.t * Emptiness.config
(** The automaton and engine configuration of the general-engine run
    that {!decide} makes on η when neither the relaxation nor the lift
    answers: [Emptiness.check ~config m] reproduces that run's outcome
    and stats (certificate mode adds [~basis:true]). *)

val lift :
  ?should_stop:(unit -> bool) ->
  Xpds_automata.Bip.t ->
  Xpds_xpath.Ast.node ->
  Xpds_datatree.Data_tree.t ->
  Xpds_datatree.Data_tree.t option
(** [lift m η w′]: the witness lift {!decide} runs, {!Lift.search} on
    [w′]'s skeleton with both replays of a witness, the same check that
    sets [witness_verified]: η holds somewhere in a candidate
    ({!Xpds_xpath.Semantics.check_somewhere}) and then the automaton
    [m] translated from η accepts it (a tree on which [m] has no run or
    several is not accepted). *)

val rules_version : int
(** The version of the rules by which {!decide} turns a formula and its
    options into a verdict. It changes whenever some formula can get a
    different verdict under the same options (an [Unknown] that now
    decides counts), so caches and stores keyed on it never serve a
    verdict of older rules. *)

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
    Theorem-4 fixpoint (the union closure, when data-free) — the
    Theorem-6 height shortcut is justified for the bare formula only,
    never for the intersection. A [Sat] witness is verified (under
    [options.verify]) against the reference semantics {e and}
    [Doctype.conforms]. Certificate mode does not apply: the search
    runs as without it (the union closure stays available), keeps no
    basis and the report has no [cert_seed], because the basis checker
    replays the bare-formula automaton and has no doctype notion. *)

val minimize : Xpds_xpath.Ast.node -> report -> report
(** [minimize η r] shrinks the witness of a [Sat] report [r] for η —
    one {!decide} answered, possibly for an equivalent formula such as
    η's canonical form — with {!Witness_min.minimize}, and replays the
    shrunk tree through the reference semantics and the run of η's
    automaton, so [witness_verified] describes the tree the report now
    carries. Any other report, or a witness on which η does not hold,
    is returned unchanged. *)

val decide_string : string -> (report, string) result
(** Parse (either sort, per {!Xpds_xpath.Parser.formula_of_string}) and
    decide. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
