(** Positions in an unranked tree.

    The paper (§2.1) represents tree positions as elements of ℕ*: the root
    is the empty word and [x·i] is the [i]-th child of [x]. We use 0-based
    child indices (the paper's examples are 1-based; only the ordering
    matters). A path is stored root-first. *)

type t = int list

val root : t
(** The root position (empty word). *)

val child : t -> int -> t
(** [child p i] is the [i]-th child of [p] (0-based). *)

val parent : t -> t option
(** The parent position, or [None] for the root. *)

val is_prefix : t -> t -> bool
(** [is_prefix p q] holds iff [p] is an ancestor-or-self of [q] —
    the paper's [p ⪯ q]. *)

val is_strict_prefix : t -> t -> bool
(** Strict ancestor: [is_prefix p q && p <> q]. *)

val depth : t -> int
(** Distance from the root; the root has depth 0. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints e.g. [ε] for the root and [0.2.1] otherwise. *)

val to_string : t -> string
(** The {!pp} rendering, built without [Format]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** [Buffer.add_string buf (to_string p)], without the intermediate
    string. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
