(** The abstract transition function τ of the tree automaton A_M
    (paper §4.1, "Checking coherence of c0 with respect to ≡E").

    Given a root label, the extended states of the children and a merging
    of their described values, computes the extended state(s) of the
    parent:

    - the per-class root-level reach sets [R(E)] (the paper's [step-up]
      composed with the non-moving closure under the root label),
    - the set [M] of pathfinder states inheriting "many" multiplicity,
    - the atom valuation by the paper's cases 1–4 (and 4' for ≠),
    - the new multiplicities (the paper's [D=]-coherence) and described
      values (all classes are kept, up to the [t0] cap — see DESIGN.md on
      why keeping more descriptions dominates),
    - the root BIP label [C(v0)], resolving the circular dependency
      between [v0] and [cl(·,C(v0))] by deciding states along the
      same-node dependency SCCs exactly as {!Xpds_automata.Bip_run} does
      (several results arise only for unbounded-interleaving automata
      whose fixpoint is ambiguous).

    The [class_values] array of a result maps each merging class to the
    index of its description in the canonical state (or -1 when the class
    was dropped: empty reach, or evicted by the [t0] cap). *)

type result = {
  state : Ext_state.t;
  class_values : int array;
      (** indexed like the merging's class list, root class first *)
}

type ctx
(** Precomputed per-automaton data (SCCs, dependency sets). *)

val make_ctx : ?project_pairs:bool -> Xpds_automata.Bip.t -> ctx
(** [project_pairs] (default false) masks the stored atom matrices to
    the pairs the automaton can ever consult (μ-atoms, the diagonal, and
    their closure under the case-1 backward steps) — a state-space
    reduction that preserves every observable answer; the emptiness
    engine turns it on. *)

val bip_of : ctx -> Xpds_automata.Bip.t

val memo_of : ctx -> Xpds_automata.Pathfinder.memo
(** The ctx's pathfinder memo (closure / step-up caches). The emptiness
    engine shares it to precompute per-state step-ups once at state
    discovery. A ctx and its memo are single-domain objects. *)

val t0_default : Xpds_automata.Bip.t -> int
(** The paper's bound [2|K|² + 2] on the number of described values. *)

val leaf :
  ?t0:int -> ?dup_cap:int -> ctx -> Xpds_datatree.Label.t -> result list
(** Extended states of the one-node tree with the given label.
    [dup_cap] keeps at most that many non-mandatory copies of identical
    descriptions (practical knob; [None] = paper behaviour). *)

val combine :
  ?t0:int ->
  ?dup_cap:int ->
  ?bases:Bitv.t array ->
  ctx ->
  Xpds_datatree.Label.t ->
  Ext_state.t array ->
  Merging.t ->
  result list
(** Extended states of a tree whose root carries the label and whose
    immediate subtrees realize the given children states, with data
    values identified according to the merging. The merging's items must
    be exactly the {e visible} values of the children (nonempty
    [step_up] of the description). [bases], when given, must be the
    per-class root bases in class order (step-ups of the members'
    values, plus the initial state for the root class) — callers that
    already union them for a canonical key pass them in to avoid
    recomputation. *)

val has_counting : Xpds_automata.Bip.t -> bool
(** μ has a downward-counting atom ([FCountGe], [FCountZero],
    [FCountLt]): a transition then reads how many children carry each
    BIP state. *)

type projection
(** Everything {!combine} reads of its children besides the class bases
    of the merging: the many base [∪ step_up(c.many)], the unions of the
    children's atom matrices, and — only when the automaton has counting
    atoms — the sorted multiset of the children's BIP labels. *)

val projection : ctx -> Ext_state.t array -> projection
(** The projection of a non-empty children array. Two calls of
    {!combine} on the same label whose children have equal projections
    and whose mergings have the same class bases in the same class order
    return equal states; when the merging has at most [t0] classes, the
    class order does not matter either (DESIGN.md: Transition memo). *)

val projection_equal : projection -> projection -> bool
val projection_hash : projection -> int

val visible_values : Xpds_automata.Bip.t -> Ext_state.t array -> (int * int) list
(** The (child, value) items to be partitioned by a merging: values whose
    reach set survives one [up] step. *)
