(** Extended states — the abstraction behind the ExpTime emptiness
    procedure (paper §4.1, "Abstracting runs").

    An extended state describes the observable behaviour of a BIP
    automaton [M] at the root of some data tree [T]: the BIP states true
    at the root, the truth of every data atom [∃(k1,k2)~], and a bounded
    set of {e described data values}, each represented by its reach set
    [Reach(d) ⊆ K] (the pathfinder states that retrieve it at the root).

    Representation notes (cf. DESIGN.md §2.4): the paper splits
    descriptions into [D=] (the unique datum of each [k] that retrieves
    exactly one) and [D◇] (extra described values), with [D=(χ(k)) = ∅]
    standing for "zero or many". We store one multiset of value
    descriptions plus, per pathfinder state [k], an explicit multiplicity:
    [unique.(k) = i] when [k] retrieves exactly the described value [i]
    ([D=]), membership in [many] when it retrieves ≥ 2 values, and
    neither when it retrieves none.

    The atom valuation is kept over a {e pair space} (see {!index}):
    the pairs [(k1,k2)] whose truth can ever be consulted. The paper's
    transition case 1 consults a child's valuation at pairs other than
    the atoms of [μ] (those reached backwards from an atom through
    [up] and non-moving steps), so the space is the μ-atoms and the
    diagonal closed under those backward steps, as computed by
    {!Transition.make_ctx}. Without that closure the space is all of
    K×K in row-major order, the {!identity} index: certificates use it,
    so that an independent checker needs no knowledge of the engine's
    projection and reads the full valuation. *)

type index
(** A pair index: the positions of the pairs of a pair space. *)

val identity : int -> index
(** [identity k_card]: all of K×K, pair [(k1,k2)] at position
    [k1·|K|+k2]. *)

val pairs :
  k_card:int -> pos:int array -> fst:int array -> snd:int array -> index
(** A symmetric subset of K×K: [pos] maps [k1·|K|+k2] to the pair's
    position, or to [-1] when the pair is outside the space, and
    position [i] holds the pair [(fst.(i), snd.(i))]. The arrays are
    taken as they are, not copied; [fst]/[snd] must list exactly the
    pairs [pos] numbers, at their positions, and the set must be
    symmetric.
    @raise Invalid_argument if [pos] is not of length [k_card²] or the
    columns differ in length. *)

val index_width : index -> int
(** The number of pairs: the width of an [eq]/[neq] vector. *)

val position : index -> int -> int -> int
(** [position ix k1 k2]: the position of [(k1,k2)], or [-1] when the
    pair is outside the space. *)

type t = private {
  states : Bitv.t;  (** C(v) ⊆ Q — the BIP run label at the root. *)
  eq : Bitv.t;
      (** over the pair space of [index]: bit [position index k1 k2] set
          iff [∃(k1,k2)=] holds at the root. Symmetric. With the
          identity index, bit [k1·|K|+k2] of a |K|²-bit vector. *)
  neq : Bitv.t;  (** same encoding for [∃(k1,k2)≠]. Symmetric. *)
  values : Bitv.t array;
      (** described data values as reach sets; pairwise-distinct values
          (descriptions may coincide); sorted, so equal states compare
          equal. Every nonempty entry. *)
  unique : int array;
      (** per [k]: index into [values] if [k] retrieves exactly one
          value, else [-1]. *)
  many : Bitv.t;  (** the [k] retrieving ≥ 2 values. *)
  index : index;
      (** the pair space of [eq]/[neq]; one index is shared by every
          state of a search, and {!equal}/{!compare}/{!hash} ignore
          it. *)
  mutable tag : int;
      (** hash-consing identity: the basis id assigned at admission
          into an emptiness search ([-1] until then). Unique per search,
          excluded from {!equal}/{!compare}/{!hash}; memo tables key on
          it for O(1) lookups instead of structural hashing. *)
}

val make :
  states:Bitv.t ->
  eq:Bitv.t ->
  neq:Bitv.t ->
  values:Bitv.t array ->
  unique:int array ->
  many:Bitv.t ->
  t
(** Canonicalizes (sorts [values], remaps [unique]) and validates the
    structural invariants. The atom matrices are over the {!identity}
    index of [|K| = Array.length unique].
    @raise Invalid_argument if an invariant fails (see {!validate}). *)

val make_unchecked :
  index:index ->
  states:Bitv.t ->
  eq:Bitv.t ->
  neq:Bitv.t ->
  values:Bitv.t array ->
  unique:int array ->
  many:Bitv.t ->
  t
(** [make] over the given pair index, without the invariant validation
    or the canonicalization — for the transition hot path, whose
    assembly establishes both by construction: [values] must already
    be sorted, and [unique] index into that order. *)

val tag : t -> int
val set_tag : t -> int -> unit
(** See the [tag] field; only an emptiness search should assign it. *)

val validate : t -> (unit, string) result
(** The invariants: [unique.(k) = i] implies [k ∈ values.(i)] and
    [k ∉ many]; [k ∈ values.(i)] implies [k] is nonzero (diagonal of
    [eq]); [k ∈ values.(i)] and [k ∈ values.(j)] for [i≠j] implies
    [k ∈ many]; [many ∩ {k | unique.(k) ≥ 0} = ∅]; atom matrices
    of the index's width and symmetric; values nonempty and sorted. *)

val nonzero : t -> int -> bool
(** [k] retrieves at least one value — the diagonal [∃(k,k)=] (the
    diagonal is in every pair space). *)

val observable : t -> int -> int -> bool
(** [(k1,k2)] is in the state's pair space. *)

val eq_at : t -> int -> int -> bool
(** The truth of [∃(k1,k2)=]; [false] outside the pair space. *)

val neq_at : t -> int -> int -> bool
val accepting : t -> Bitv.t -> bool
(** [accepting c final] — [C(v) ∩ F ≠ ∅]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val pair_index : k_card:int -> int -> int -> int
(** [k1·|K|+k2]: the position of [(k1,k2)] under the identity index. *)
