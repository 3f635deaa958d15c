(** Running a BIP automaton on a concrete data tree.

    The run [λ : Pos(T) → 2^Q] must satisfy [q ∈ λ(n)] iff
    [T|n, λ|n ⊨ μ(q)] (§3.1). We compute it bottom-up; at each node, the
    states are decided SCC-by-SCC of the same-node dependency graph
    ({!Bip.sccs}): acyclic states are evaluated directly, and a cyclic
    component is resolved by searching for the unique consistent
    labelling (such components exist only beyond the bounded-interleaving
    fragment, Appendix B — where the paper's "unique by definition" run
    may genuinely fail to exist or to be unique, which we surface as
    exceptions).

    Besides the run itself we compute, per node [n] and data value [d],
    the paper's [Reach(d)] — the pathfinder states [k] such that some run
    over [λ(T|n)] starting at a [d]-valued node ends at [n] in [k]. This
    is the semantic object the emptiness abstraction describes.

    Each node builds the label-independent part of its reach sets once
    (per datum, the union of the children's step-ups, plus [kI] for its
    own datum) and closes it under the partial label [λ(n)] only when a
    transition formula reaches an [∃(k1,k2)~] atom, and again only when
    the label has grown since: the closure under a given label is the
    same whenever it is taken, so the run and its reach sets do not
    depend on how lazily they are computed. *)

exception No_run of string
(** No labelling satisfies the fixpoint (unbounded interleaving only). *)

exception Ambiguous_run of string
(** Several labellings satisfy the fixpoint (unbounded interleaving
    only). *)

type node_info = {
  states : Bitv.t;  (** λ(n) ⊆ Q *)
  reach : (int * Bitv.t) list;
      (** [(d, Reach(d))] for every data value [d] of the subtree with at
          least one run into the subtree root; sorted by [d]. *)
  info_children : node_info list;
}

val run : Bip.t -> Xpds_datatree.Data_tree.t -> node_info
(** The unique run, with reach information.
    @raise No_run / Ambiguous_run as described above.
    @raise Bip.Ill_formed if the tree uses labels outside Σ — the
    automaton's language is over Σ-trees. *)

val accepts : Bip.t -> Xpds_datatree.Data_tree.t -> bool
(** [λ(ε) ∩ F ≠ ∅]. Trees with labels outside Σ are rejected. *)

val states_at_root : Bip.t -> Xpds_datatree.Data_tree.t -> Bitv.t
