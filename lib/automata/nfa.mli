(** Nondeterministic finite automata over the path alphabet.

    The Theorem-3 translation views a path expression [α] as a regular
    expression over the alphabet [Ση = {node tests of η} ∪ {↓}] and
    compiles {e its reverse} to an NFA (path expressions name root-to-leaf
    paths, while the pathfinder reads branches leaf-to-root). We compile
    [α] by a Thompson-style construction with ε-transitions, eliminate the
    ε-transitions, and reverse the transition graph.

    An automaton is generic in what a test letter carries: {!of_path}
    keeps the node expression itself, while the translation compiles
    paths whose tests are already numbered BIP states ({!compile}), so
    that no letter is ever hashed or compared. *)

type 'a letter =
  | Test of 'a
      (** a node-expression test — matched in the pathfinder by reading
          the corresponding BIP state. *)
  | Down  (** the [↓] step — matched by the pathfinder's [up] move. *)

type 'a t = {
  n_states : int;
  initials : Bitv.t;
  finals : Bitv.t;
  edges : (int * 'a letter * int) list;
      (** sorted by source, then [Down] before [Test], then target *)
}

(** One constructor of a path expression, its sub-paths of type ['p]
    and its tests of type ['a] left abstract: the view {!compile} walks. *)
type ('p, 'a) step =
  | Self
  | Child
  | Descendant
  | Seq of 'p * 'p
  | Union of 'p * 'p
  | Filter of 'p * 'a
  | Guard of 'a * 'p
  | Star of 'p

val compile : ('p -> ('p, 'a) step) -> 'p -> 'a t
(** [compile view p] is the trimmed ε-free NFA of the path that [view]
    unfolds from [p]: [Filter (α,ϕ)] contributes [word(α)·test(ϕ)],
    [Guard (ϕ,α)] contributes [test(ϕ)·word(α)], [↓∗] is [Down*].
    Only states both reachable from the single initial state and
    co-reachable to a final state are kept, numbered in the order of
    the construction — which keeps the pathfinder (and thus every
    K-indexed structure of the decision procedures) small; an automaton
    with the empty language has zero states. Two views of the same path
    tree give the same automaton. *)

val of_path : Xpds_xpath.Ast.path -> Xpds_xpath.Ast.node t
(** {!compile} over the syntax tree itself. *)

val reverse : 'a t -> 'a t
(** Swap initials and finals and flip every edge: recognizes the mirror
    language. The result may have several initial states. Reversal
    keeps the automaton trimmed and its numbering. *)

val accepts : 'a t -> ('a letter -> bool) list -> bool
(** [accepts a w] — does [a] accept a word matching the predicates [w]?
    Each position of the word is given as a predicate on letters (a test
    letter matches if the predicate says so). Used by unit tests. *)

val size : 'a t -> int
(** Number of states — the quantity measured by experiment E7. *)

val pp : Format.formatter -> Xpds_xpath.Ast.node t -> unit
