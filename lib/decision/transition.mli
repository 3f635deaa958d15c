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
(** The pair index of the states the ctx builds ({!Ext_state.index}).
    With [project_pairs] (default false) it numbers only the pairs the
    automaton can ever consult: the μ-atoms and the diagonal, closed
    under the simultaneous backward steps of case 1 (the pairs of
    [V(k1) × V(k2)] under the full label). The closure's queue numbers
    the pairs as they enter it, so the index costs no pass beyond the
    closure. A projected state carries one bit per such pair, which
    collapses states that differ only in unobservable pairs and
    preserves every observable answer; the emptiness engine turns it on
    except in certificate runs. Without [project_pairs], or beyond 128
    pathfinder states, the index is the identity: K×K, row-major. *)

val bip_of : ctx -> Xpds_automata.Bip.t

val memo_of : ctx -> Xpds_automata.Pathfinder.memo
(** The ctx's pathfinder memo (closure / step-up caches). The emptiness
    engine shares it to precompute per-state step-ups once at state
    discovery. A ctx and its memo are single-domain objects. *)

val leaf :
  ?t0:int -> ?dup_cap:int -> ctx -> Xpds_datatree.Label.t -> result list
(** Extended states of the one-node tree with the given label.
    [dup_cap] keeps at most that many non-mandatory copies of identical
    descriptions (practical knob; [None] = paper behaviour). *)

type step
(** One merging of one children array, ready to apply under any root
    label: its class bases and its many base as raw words, and the
    lights made so far (the class reaches and atom answers under one
    read projection of the root label). A light depends on the label
    only through its read projection, so every label applied to a step
    shares them. A step is its ctx's scratch: the next {!step} or
    {!step_of_enum} on the same ctx overwrites it. *)

val step :
  ?t0:int -> ?dup_cap:int -> ctx -> Ext_state.t array -> Merging.t -> step
(** See {!combine} for the arguments. The many base depends only on the
    children: a step over the same (physically equal) children array as
    the ctx's previous step reuses it, so the array must not be mutated
    in between. *)

val step_of_enum :
  ?t0:int -> ?dup_cap:int -> ctx -> Ext_state.t array -> Merging.enum -> step
(** The step of the enumeration's current partition of the children's
    visible values: the same as {!step} on {!Merging.current}, with the
    class bases read from the unions the enumeration keeps. *)

val apply : ctx -> step -> Xpds_datatree.Label.t -> (unit -> unit) -> unit
(** [apply ctx st label f] calls [f ()] once per result of the step under
    [label], in the order {!combine} lists them. During a call the
    result is held in the ctx's scratch, as a flat encoding of the
    state: {!result_hash} and {!is_result} look it up among known
    states, and {!result} materializes it. Nothing is allocated per
    result otherwise. *)

val result : ctx -> result
(** The result [apply] is calling back for, materialized. *)

val result_hash : ctx -> int
(** A hash of the result's state, computed from the scratch encoding:
    equal states (within one ctx) hash equally. *)

val is_result : ctx -> Ext_state.t -> bool
(** Whether a state of this ctx is {!Ext_state.equal} to the result's,
    compared word by word against the scratch encoding. *)

val combine :
  ?t0:int ->
  ?dup_cap:int ->
  ctx ->
  Xpds_datatree.Label.t ->
  Ext_state.t array ->
  Merging.t ->
  result list
(** Extended states of a tree whose root carries the label and whose
    immediate subtrees realize the given children states, with data
    values identified according to the merging: {!apply} on {!step},
    every result materialized. The merging's items must be exactly the
    {e visible} values of the children (nonempty [step_up] of the
    description). *)

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
