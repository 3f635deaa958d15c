(** Emptiness of BIP automata (Theorem 4) and its height-bounded variant
    (Theorem 6).

    The paper reduces emptiness to that of a classical bottom-up tree
    automaton with exponentially many {e extended states}; we explore the
    reachable extended states on the fly with a worklist fixpoint:
    leaves per alphabet symbol, then transitions from multisets of at
    most [width] already-reached states × mergings of their visible
    values. Provenance is recorded, so a nonempty answer ships a concrete
    witness data tree (the soundness construction of Prop 1, with data
    values assigned per merge class).

    [width] corresponds to the paper's branching bound
    [u0 = (2|K|²+|K|+2)|K|] and [t0] to the description bound [2|K|²+2]:
    with those values the procedure is complete (Prop 2); smaller values
    trade completeness of the Nonempty answer for speed (Empty answers
    from a truncated search are reported as [Bounded_empty]). The
    [max_height] bound is the Theorem-6 mechanism: with a poly-depth
    fragment's bound it is exact. A {!data_free} automaton takes the
    exact data-free union closure instead. *)

type outcome =
  | Nonempty of Xpds_datatree.Data_tree.t
      (** a witness tree accepted by the automaton *)
  | Empty  (** saturated under the paper's bounds, or data-free *)
  | Bounded_empty
      (** saturated, but under user bounds smaller than the paper's
          (width/t0) — no witness exists {e within} those bounds *)
  | Resource_limit of string
      (** state or transition budget exhausted before saturation *)

type stats = {
  n_states : int;  (** distinct extended states reached *)
  n_transitions : int;  (** transition applications attempted *)
  n_mergings : int;
      (** mergings walked (after {!Merging.iter}'s symmetry pruning) *)
  max_height_reached : int;
  n_replayed : int;
      (** transitions among [n_transitions] answered from the search's
          transition memo instead of recomputed (0 on the data-free union
          closure). Not part of wire responses or metrics. *)
  n_fresh_keys : int;
      (** mergings whose key no earlier merging of the same children had:
          the ones looked up in the transition memo *)
  n_applied : int;
      (** (merging, label) transitions computed by {!Transition.apply}:
          [n_transitions] less the replayed ones and the leaves *)
}

(** Search knobs. The record mirrors {!Xpds_decision.Sat.Options.t}
    field for field on the search-bound knobs. The data-free union
    closure reads only [max_states], [max_transitions] and
    [should_stop]. *)
type config = {
  width : int option;
      (** max branching of the witness; default: the paper's [u0] *)
  t0 : int option;  (** max described values; default: the paper's *)
  dup_cap : int option;
      (** max copies of identical descriptions kept per state
          (practical knob; default [None] = paper behaviour) *)
  merge_budget : int option;
      (** max items taking part in identifications per merging
          (practical knob; default [None] = paper behaviour) *)
  max_height : int option;
      (** Theorem-6 height bound; default: unbounded *)
  max_states : int;  (** resource budget; default 20_000 *)
  max_transitions : int;  (** resource budget; default 200_000 *)
  should_stop : (unit -> bool) option;
      (** cooperative cancellation hook (deadlines): polled at every
          transition application, periodically inside merging
          enumeration and every 256 extensions of the data-free union
          closure. When it returns [true] the search aborts with
          [Resource_limit "deadline exceeded"] and the stats gathered so
          far — never with a (possibly wrong) [Empty]/[Bounded_empty],
          so the honesty model is preserved (see DESIGN.md). Default
          [None]. *)
}

val deadline_exceeded : string
(** The [Resource_limit] payload produced when [should_stop] fires. *)

val default_config : config

val paper_width : Xpds_automata.Bip.t -> int
(** [u0 = (2|K|² + |K| + 2)·|K|]. *)

val data_free : Xpds_automata.Bip.t -> bool
(** Every data atom of μ is a diagonal equality [∃(k,k)=] — how
    Theorem 3 renders [⟨α⟩] for data-free formulas. Such automata take
    the data-free union closure: the extended state collapses to
    [(C, reach)], and a parent sees its children only through the union
    of their step-ups and the capped counts of the counted states.
    Saturating those observables is exact at any width (DESIGN.md §3b
    item 6); a witness node has at most [|K|] plus the sum of the caps
    children. *)

val check : ?config:config -> Xpds_automata.Bip.t -> outcome
val check_with_stats : ?config:config -> Xpds_automata.Bip.t -> outcome * stats

val check_with_basis :
  ?config:config ->
  Xpds_automata.Bip.t ->
  outcome * stats * Ext_state.t array option
(** Like {!check_with_stats}, but additionally returns the saturated set
    of extended states when the search ended by genuine saturation (an
    [Empty]/[Bounded_empty] not caused by the [max_height] cap): that
    set is an inductive invariant — every leaf transition lands in it,
    every bounded transition from it stays in it, and no member is
    accepting — i.e. the basis of a checkable UNSAT certificate
    ({!Xpds_cert.Cert}). Certificate runs always use the general engine
    (never the data-free fast path) and keep the full K×K atom matrices
    (the identity pair index, {!Ext_state.identity}), so the basis
    states are exactly what an independent transition evaluator
    reproduces. [None] on [Nonempty],
    [Resource_limit], or a height-capped saturation. *)

val is_nonempty : ?config:config -> Xpds_automata.Bip.t -> bool option
(** [Some true]/[Some false] when conclusive under the given bounds
    ([Bounded_empty] counts as inconclusive [None] only if the bounds
    were below the paper's; [Resource_limit] is always [None]). *)
