(** Bottom-up Interleaved Path automata (paper §3).

    A BIP automaton [M = ⟨Σ, Q, μ, F, P⟩] labels each node of a data tree
    with the set of states [q] whose transition formula [μ(q)] holds
    there; [μ(q)] is a boolean combination of label tests and data-test
    atoms [∃(k1,k2)~] asking the pathfinder [P] (which runs over the
    partially-built BIP run) to retrieve two data values in the relation
    [~]. We also carry the counting atoms [#q ≥ n] (positive occurrences
    only) and [#q = 0] from the document-type extension of §4.1. *)

type form =
  | FTrue
  | FFalse
  | FLab of Xpds_datatree.Label.t  (** the root's symbol is [a] *)
  | FNot of form
  | FAnd of form * form
  | FOr of form * form
  | FEx of int * int * Xpds_xpath.Ast.op
      (** [∃(k1,k2)~]: two pathfinder runs over the run-labelled subtree
          output [(k1,d)] and [(k2,d')] with [d ~ d']. *)
  | FCountGe of int * int
      (** [#q ≥ n]: at least [n] children carry state [q]. Must occur
          positively (§4.1); [n] is meant in unary. *)
  | FCountZero of int  (** [#q = 0]: no child carries state [q]. *)
  | FCountLt of int * int
      (** [#q < n] — {e an engine extension beyond the paper}: the paper
          disallows upper-bound counting because it breaks closure under
          subtree duplication; our emptiness engine evaluates counts on
          explicit children, so the atom is well-defined, and {!Doctype}
          uses it only inside a [#q_invalid = 0] constraint, which
          restores duplication closure for the composed automaton. *)

(** The reverse pathfinder index: the transitions into each pathfinder
    state, in compressed rows. Those into [k] are
    [off.(k) .. off.(k+1)-1]; entry [i] comes from [src.(i)] and reads
    the BIP state [lbl.(i)], or is a moving ([up]) transition when
    [lbl.(i) = -1]. *)
type preds = private { off : int array; src : int array; lbl : int array }

type t = private {
  labels : Xpds_datatree.Label.t list;  (** Σ *)
  q_card : int;  (** |Q|; states are [0 .. q_card-1] *)
  mu : form array;  (** the transition function μ *)
  final : Bitv.t;  (** F ⊆ Q *)
  pf : Pathfinder.t;  (** P, with [pf.q_card = q_card] *)
  preds : preds;
      (** the reverse index of [pf], computed by {!create}; the
          dependency cones and the emptiness engine's backward sets
          walk it. Shared: read it, do not write it. *)
  deps : Bitv.t array;  (** {!dependencies}, computed by {!create} *)
  components : int list list;  (** {!sccs}, computed by {!create} *)
}

exception Ill_formed of string

val create :
  labels:Xpds_datatree.Label.t list ->
  mu:form array ->
  final:Bitv.t ->
  pf:Pathfinder.t ->
  t
(** @raise Ill_formed if state/letter indices are out of range, the
    pathfinder's [Q] disagrees with [|mu|], or some [FCountGe] occurs
    under a negation. *)

val fold_form : ('a -> form -> 'a) -> 'a -> form -> 'a
(** Fold over the atomic subformulas ([FEx], counting atoms) of a μ
    formula. *)

val ex_atoms : t -> (int * int * Xpds_xpath.Ast.op) list
(** The distinct [∃(k1,k2)~] atoms occurring in μ — the paper's
    [atFormM] restricted to data tests. *)

val max_count : t -> int
(** The largest [n] of any [#q ≥ n] atom ([n0] in §4.1); 0 if none. *)

(** {1 Same-node dependency analysis}

    Evaluating [μ(q)] at a node [n] inspects pathfinder runs that end at
    [n] and may read the label [λ(n)] being defined — the interleaving.
    [q] {e depends on} [q'] when some [∃(k1,k2)~] of [μ(q)] names a state
    [k] such that a transition reading [q'] lies on some pathfinder path
    into [k]. The translated automata of Theorem 3 are always acyclic
    here (tests read strictly smaller subformulas); hand-built automata
    may be cyclic — that is exactly the unbounded interleaving of
    Appendix B.

    {!create} (and so {!intersect} and every translation) computes the
    dependency graph and its SCCs once, eagerly; {!dependencies},
    {!sccs} and {!has_bounded_interleaving} read them back in O(1)
    (the last walks the component list) and never recompute. *)

val reads_into : t -> Bitv.t array
(** [reads_into m].(k) = the set of [q] read by some transition on some
    pathfinder path ending in [k] (including the transition into [k]). *)

val dependencies : t -> Bitv.t array
(** [dependencies m].(q) = the states [q'] that must be decided at the
    same node before [μ(q)] can be evaluated. The array is shared with
    [m]: read it, do not write it. *)

val sccs : t -> int list list
(** Strongly connected components of the dependency graph in a
    topological order (dependencies first). Singleton components without
    a self-loop can be evaluated directly; larger (or self-looping)
    components require a fixpoint search ({!Bip_run}). *)

val has_bounded_interleaving : t -> bool
(** Definition 4 (Appendix B): the dependency graph is acyclic, i.e.,
    every SCC is a singleton without self-loop. Exactly the automata
    equivalent to regXPath(↓,=) (Prop 6). *)

val intersect : t -> t -> t
(** Product automaton accepting the intersection of the two languages
    (§4.1: used for satisfiability under document types). Built as the
    disjoint union of states and pathfinders plus one fresh final state
    whose μ is the conjunction of the two acceptance conditions. *)

val pp : Format.formatter -> t -> unit
val pp_form : Format.formatter -> form -> unit
