(** Fixed-width immutable bit vectors — the shared set kernel of the
    automata and decision libraries.

    The decision procedures manipulate many small sets of automaton
    states (subsets of [K] and [Q]); extended states are hash-consed on
    them, and the emptiness fixpoint unions them millions of times. Bit
    vectors give O(width/63) set operations and cheap structural
    equality/hashing; the scans ([iter], [fold], [exists], [choose])
    skip zero words and extract set bits with lowest-set-bit arithmetic,
    and [cardinal] is a SWAR popcount, so their cost tracks the number
    of set bits rather than the width. All values of a given width are
    comparable; mixing widths raises [Invalid_argument].

    For accumulation loops, the {{!builders}mutable builder} API unions
    in place and freezes once, avoiding a full copy per element. *)

type t

val empty : int -> t
(** [empty width] is ∅ over the domain [0 .. width-1]. *)

val full : int -> t
(** [full width] is the whole domain. *)

val singleton : int -> int -> t
(** [singleton width i]. *)

val of_list : int -> int list -> t

val of_range : int -> lo:int -> hi:int -> t
(** [of_range width ~lo ~hi] is [{lo, lo+1, .., hi}], built with whole-word
    stores — the ↓∗ kernel of the bulk evaluator, where a pre-order-indexed
    subtree is a contiguous id interval. [hi < lo] yields ∅.
    @raise Invalid_argument when a nonempty range escapes the width. *)

val width : t -> int
val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
(** Short-circuits on the first nonzero word. *)

val subset : t -> t -> bool
(** [subset a b] — true iff every bit of [a] is in [b]; short-circuits
    on the first word of [a] escaping [b]. *)

val disjoint : t -> t -> bool
(** [disjoint a b] — [a ∩ b = ∅] without materializing the
    intersection; short-circuits on the first overlapping word. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Dedicated FNV-style mix over the whole word array (the polymorphic
    hash samples only a prefix), finished by Murmur3's finalizer so
    that the low bits depend on every bit. Non-negative; equal vectors
    hash equal. Suitable for [Hashtbl.Make]: [Bitv] itself satisfies
    [Hashtbl.HashedType]. *)

val cardinal : t -> int
val elements : t -> int list
(** Ascending. *)

val iter : (int -> unit) -> t -> unit
(** Visits set bits in ascending order, skipping zero words. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (int -> bool) -> t -> bool
val for_all : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t

val choose : t -> int option
(** The lowest set bit, found without materializing [elements]. *)

(** {2:builders Mutable builders}

    A [builder] is a mutable word array of a fixed width. Hot loops
    (closure fixpoints, step-up unions, canonical merging keys)
    accumulate into one with {!add_in_place}/{!union_into} — O(1)
    amortized per bit, no intermediate copies — then {!freeze} it into
    an immutable {!t} once. Builders are single-owner scratch space:
    freezing copies, so a frozen result never aliases the builder. *)

type builder

val builder : int -> builder
(** [builder width] is an empty mutable set over [0 .. width-1]. *)

val builder_of : t -> builder
(** A builder seeded with the bits of [t] (copied). *)

val builder_width : builder -> int

val builder_reset : builder -> unit
(** Clear every bit, reusing the storage. *)

val add_in_place : int -> builder -> unit
val remove_in_place : int -> builder -> unit
val builder_mem : int -> builder -> bool

val add_range_in_place : lo:int -> hi:int -> builder -> unit
(** OR the whole interval [lo..hi] into the builder with word-level
    stores; a no-op when [hi < lo].
    @raise Invalid_argument when a nonempty range escapes the width. *)

val union_into : t -> builder -> bool
(** [union_into src b] ORs [src] into [b]; returns whether [b] gained a
    bit (the "changed" test of a saturation loop).
    @raise Invalid_argument on width mismatch. *)

val freeze : builder -> t
(** An immutable snapshot (copy) of the builder's current contents. *)

(** {2 Raw words}

    For kernels that keep many small sets side by side in one flat
    [int array] (one group of {!word_count} words per set) and combine
    them with word arithmetic. Bit [i] of a set lives in word
    [i / Sys.int_size], at bit [i mod Sys.int_size]. *)

val word_count : int -> int
(** [word_count width]: the number of words of a vector of that width. *)

val equal_words : t -> int array -> int -> bool
(** [equal_words t src pos]: whether [t]'s {!word_count} words equal
    [src.(pos) ..]. *)

val popcount : int -> int
(** The number of set bits of a word. *)

val lowest_bit : int -> int
(** [lowest_bit w]: the index of the lowest set bit of the nonzero word
    [w] — a scan over raw words visits [w]'s bits by taking
    [lowest_bit w] and clearing it with [w land (w - 1)]. *)

val blit_words : t -> int array -> int -> unit
(** [blit_words t dst pos] copies the {!word_count} words of [t] into
    [dst] starting at [pos]. *)

val of_words : int -> int array -> int -> t
(** [of_words width src pos] is the vector of that width whose words are
    [src.(pos) ..]; bits past [width] are ignored. *)

val iter_words : (int -> unit) -> int array -> pos:int -> len:int -> unit
(** [iter_words f src ~pos ~len] is {!iter} over the [len] raw words
    [src.(pos) ..]: [f i] for every set bit [i], counted from bit 0 of
    [src.(pos)], in ascending order, skipping zero words. *)

val pp : Format.formatter -> t -> unit
