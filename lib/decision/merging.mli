(** Mergings of described data values (paper §4.1, "Merging data values").

    A transition of the abstract tree automaton nondeterministically
    chooses an equivalence relation [≡E] over the data values described
    by the children's extended states plus the new root's own datum
    ([root]); values in the same class are identified (equal), values in
    different classes are distinct. Two constraints are structural: two
    distinct described values of the {e same} child are never equal, and
    the paper's [D=]-coherence is automatic in our representation because
    a state never describes the same value twice.

    Values whose description cannot take a single [up] step are invisible
    to the parent and are left in singleton classes by the caller (they
    are not passed as items), which prunes the enumeration soundly. *)

type klass = {
  has_root : bool;  (** the new root's datum belongs to this class *)
  members : (int * int) list;
      (** (child index, value index) pairs, at most one per child *)
}

type t = klass list

(** {2 Keyed enumeration}

    The emptiness fixpoint walks the partitions of [items ∪ {root}]
    that respect the same-child constraint, with the root's class
    first. Items carry a bit vector each (the stepped-up description of
    the value); the walk keeps every class's union of its members'
    vectors as raw words, updated in place on each join and restored
    on backtrack, and dedups partitions by a canonical key: the
    multiset of (root flag, class union) pairs. A transition depends on
    a merging only through that key when the merging has at most [t0]
    classes; with more, the [t0] truncation breaks ties by class index,
    and keeping the first merging of each key is a deliberate
    approximation (the verdict is then bounded anyway). One [enum]
    holds every buffer and is reused from one item list to the next; it
    is single-owner scratch. *)

type enum

val create : unit -> enum

val clear : enum -> width:int -> unit
(** Start a new item list whose vectors have [width] bits, and forget
    every key seen so far. *)

val push : enum -> int -> int -> Bitv.t -> unit
(** [push e child value bv] appends the item [(child, value)] with its
    vector [bv] (of the width given to {!clear}). Pairs must not
    repeat, and a child's items must be pushed together: a child index
    that comes back after another child's raises [Invalid_argument]. *)

val iter : ?budget:int -> enum -> (enum -> unit) -> unit
(** [iter ?budget e f] calls [f e] on partitions of the pushed items,
    in restricted-growth order: items inserted in push order, each
    joining an existing class (in class order) or else opening a new
    one. The optional [budget] caps the number of items taking part in
    identifications (items in the root class or in classes of size
    ≥ 2) — a practical completeness knob, not part of the paper's
    construction.

    The walk skips partitions that a swap of two items of one child
    with equal vectors maps to an earlier partition (same key, same
    cost), so it yields a subsequence of the full order that holds the
    first partition of every key, in order. During a call,
    {!n_classes}, {!class_union}, {!fresh_key} and {!current} describe
    the current partition. Exceptions from [f] abort the walk. *)

val n_classes : enum -> int
(** Classes of the current partition; class 0 holds the root. *)

val class_union : enum -> int -> Bitv.t
(** [class_union e c]: the union of the vectors of class [c]'s
    members (∅ for a root class without members). *)

val class_words : enum -> int -> int array -> int -> unit
(** [class_words e c dst pos] copies {!class_union}[ e c]'s words into
    [dst] at [pos] ({!Bitv.word_count} of the width). *)

val fresh_key : enum -> bool
(** Whether no earlier partition since {!clear} had the current one's
    key — the multiset of (root flag, {!class_union}) over its classes —
    and records the key. The first partition of each key in
    restricted-growth order is the one that answers [true]; {!iter}
    walks it whatever else it skips. *)

module Key : Hashtbl.HashedType with type t = int array
(** Keys as {!key} and {!transition_key} return them: [k.(0)] is the
    payload length, [k.(1)] the number of classes, then the classes'
    union words, root class first. *)

val key : enum -> Key.t
(** The key the last {!fresh_key} answering [true] recorded: the
    non-root classes in ascending word order (a fresh array). *)

val transition_key : enum -> t0:int -> Key.t
(** After {!fresh_key} answered [true]: what a transition under the
    current partition depends on, beyond its children. With at most [t0]
    classes that is {!key}; with more, the [t0] truncation breaks ties
    by class index, so the non-root classes stay in class index order (a
    fresh array). *)

val intern_transition_key : enum -> t0:int -> tag:int -> Wordtbl.t -> int
(** After {!fresh_key} answered [true]: intern the words of
    {!transition_key}, with [tag] in place of the length prefix, into
    the table, and return their id (new iff it equals the table's
    length before the call). Allocates nothing for a key already
    there. *)

val current : enum -> t
(** The current partition, materialized: classes in class order,
    members in push order. *)

