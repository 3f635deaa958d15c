(** The PTime translation from regXPath(↓,=) to BIP automata (Theorem 3).

    Given a node expression [η], builds [M] such that for every data tree
    [T]: [ε ∈ [[η]]_T] iff [M] accepts [T].

    Construction (paper §3.2): one BIP state [q_ψ] per node subformula
    [ψ] of [η] (plus [q_⊤], true everywhere, which anchors the
    pathfinder's entry transition); for each path [α] tested by some
    [⟨α⟩] or [α~β], the NFA of the {e reversed} word language of [α] is
    embedded into the pathfinder together with a sink state [k_α] entered
    exactly when the NFA completes — so a pathfinder run outputs
    [(k_α, d)] at a node [x] iff [α] reaches a [d]-valued node from [x].
    Then [μ(q_{α~β}) = ∃(k_α,k_β)~] and [μ(q_{⟨α⟩}) = ∃(k_α,k_α)=];
    boolean structure is inlined. Σ is the labels [η] tests, the
    [?labels] given, and a fresh label [a⊥] (["@other"]).

    Numbering, which every downstream search observes: [q_ψ] follows
    {!Xpds_xpath.Ast.node_subformulas} ([q_⊤] last when [η] lacks
    [True]); tested paths take their pathfinder states in the order
    of the node subformulas that test them. The translation walks [η]
    once and numbers subexpressions by hash-consing on their children's
    ids, so no syntax tree is ever hashed or compared.

    One deliberate deviation from the paper's text: when [ε ∈ L(α)] (the
    path can end where it starts, e.g. [α = ↓∗]), the entry transition
    can move directly from [k_I] to [k_α], so that the node's own datum
    is retrieved; the paper's transition table omits this corner. *)

val of_node : ?labels:Xpds_datatree.Label.t list -> Xpds_xpath.Ast.node -> Bip.t
(** Translate [η]; acceptance means [η] holds {e at the root}. [?labels]
    adds extra alphabet symbols to Σ beyond those occurring in [η] (the
    automaton's language is over Σ-trees, so tests and emptiness must
    agree on Σ). *)

val of_node_somewhere :
  ?labels:Xpds_datatree.Label.t list -> Xpds_xpath.Ast.node -> Bip.t
(** Translate [⟨↓∗[η]⟩] — acceptance means [[η]]_T ≠ ∅, the
    satisfiability of Definition 1. *)
