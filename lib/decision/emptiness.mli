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

    The search runs under {!Bounds.t}: with bounds that meet the paper's
    ({!Bounds.paper_complete}) the procedure is complete (Prop 2) and a
    saturation is [Empty]; smaller bounds trade completeness for speed,
    and their saturation is [Bounded_empty]. The [max_height] bound is
    the Theorem-6 mechanism: with a poly-depth fragment's bound it is
    exact, so a height-capped saturation under paper-complete bounds is
    [Empty] too. A {!data_free} automaton takes the exact data-free
    union closure instead, whose saturation is always [Empty]. *)

type outcome =
  | Nonempty of Xpds_datatree.Data_tree.t
      (** a witness tree accepted by the automaton *)
  | Empty
      (** saturated under paper-complete bounds (height-capped at a
          Theorem-6 bound or not), or by the data-free union closure *)
  | Bounded_empty
      (** saturated, but under bounds smaller than the paper's — no
          witness exists {e within} those bounds *)
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

type height_cap = private int
(** A Theorem-6 height bound. Only {!theorem6_cap} builds one: a smaller
    cap would make a capped saturation's [Empty] unsound. *)

val theorem6_cap : Xpds_xpath.Ast.node -> height_cap option
(** The poly-depth bound ({!Xpds_xpath.Fragment.poly_depth_bound}) of
    the simplified formula the searched automaton is translated from;
    [None] outside the Theorem-6 fragments. *)

(** Search knobs. The data-free union closure reads only
    [max_states], [max_transitions] and [should_stop]. *)
type config = {
  bounds : Bounds.t;
      (** the general engine's bounds; default {!Bounds.paper} *)
  max_height : height_cap option;
      (** the search's height cap, from {!theorem6_cap}; default:
          unbounded *)
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

val data_free : Xpds_automata.Bip.t -> bool
(** Every data atom of μ is a diagonal equality [∃(k,k)=] — how
    Theorem 3 renders [⟨α⟩] for data-free formulas. Such automata take
    the data-free union closure: the extended state collapses to
    [(C, reach)], and a parent sees its children only through the union
    of their step-ups and the capped counts of the counted states.
    Saturating those observables is exact at any width (DESIGN.md §3b
    item 6); a witness node has at most [|K|] plus the sum of the caps
    children. *)

type answer = {
  outcome : outcome;
  stats : stats;
  basis : Ext_state.t array option;
      (** the saturated set of extended states, on a [~basis:true] search
          that ended by genuine saturation (an [Empty]/[Bounded_empty]
          not caused by the [max_height] cap); [None] otherwise *)
}

val check : ?config:config -> ?basis:bool -> Xpds_automata.Bip.t -> answer
(** Decide emptiness of the automaton. With [~basis:true] (certificate
    mode) the search always takes the general engine, never the
    data-free union closure, and keeps the full K×K atom matrices (the
    identity pair index, {!Ext_state.identity}), so a saturated basis
    holds exactly the states an independent transition evaluator
    reproduces. That set is an inductive invariant — every leaf
    transition lands in it, every bounded transition from it stays in
    it, and no member is accepting — i.e. the basis of a checkable
    UNSAT certificate ({!Xpds_cert.Cert}). *)
