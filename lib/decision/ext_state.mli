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
    neither when it retrieves none. We also keep the {e full} atom
    valuation over K×K (not just the atoms of [μ]) because the paper's
    transition case 1 consults child valuations for arbitrary pairs. *)

type t = private {
  states : Bitv.t;  (** C(v) ⊆ Q — the BIP run label at the root. *)
  eq : Bitv.t;
      (** width |K|², bit [k1·|K|+k2] set iff [∃(k1,k2)=] holds at the
          root. Symmetric. *)
  neq : Bitv.t;  (** same encoding for [∃(k1,k2)≠]. Symmetric. *)
  values : Bitv.t array;
      (** described data values as reach sets; pairwise-distinct values
          (descriptions may coincide); sorted, so equal states compare
          equal. Every nonempty entry. *)
  unique : int array;
      (** per [k]: index into [values] if [k] retrieves exactly one
          value, else [-1]. *)
  many : Bitv.t;  (** the [k] retrieving ≥ 2 values. *)
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
    structural invariants.
    @raise Invalid_argument if an invariant fails (see {!validate}). *)

val make_unchecked :
  states:Bitv.t ->
  eq:Bitv.t ->
  neq:Bitv.t ->
  values:Bitv.t array ->
  unique:int array ->
  many:Bitv.t ->
  t
(** [make] without the invariant validation — for the transition hot
    path, whose assembly establishes the invariants by construction.
    Still canonicalizes. *)

val tag : t -> int
val set_tag : t -> int -> unit
(** See the [tag] field; only an emptiness search should assign it. *)

val validate : t -> (unit, string) result
(** The invariants: [unique.(k) = i] implies [k ∈ values.(i)] and
    [k ∉ many]; [k ∈ values.(i)] implies [k] is nonzero (diagonal of
    [eq]); [k ∈ values.(i)] and [k ∈ values.(j)] for [i≠j] implies
    [k ∈ many]; [many ∩ {k | unique.(k) ≥ 0} = ∅]; atom matrices
    symmetric; values nonempty and sorted. *)

val nonzero : t -> int -> bool
(** [k] retrieves at least one value — the diagonal [∃(k,k)=]. *)

val eq_at : t -> int -> int -> bool
val neq_at : t -> int -> int -> bool
val accepting : t -> Bitv.t -> bool
(** [accepting c final] — [C(v) ∩ F ≠ ∅]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val pair_index : k_card:int -> int -> int -> int
val empty_matrix : k_card:int -> Bitv.t
val matrix_add : k_card:int -> int -> int -> Bitv.t -> Bitv.t
(** Sets both [(k1,k2)] and [(k2,k1)]. *)

val matrix_mem : k_card:int -> int -> int -> Bitv.t -> bool
