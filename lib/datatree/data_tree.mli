(** Data trees: unranked finite trees whose nodes carry a label from a
    finite alphabet and a data value from an infinite domain (paper §2.1).

    A data tree [T = ⟨T, σ, δ⟩] is represented as an immutable rose tree;
    the set of positions, the labelling [σ] and the data function [δ] are
    implicit in the structure. Data values are integers ([∆ = ℕ] up to a
    bijection — the logic only observes equality of data values, so any
    countable domain serves, cf. DESIGN.md §3). *)

type t = private { label : Label.t; data : int; children : t list }

val make : Label.t -> int -> t list -> t
(** [make label data children] builds the tree [⟨label, data⟩(children)]. *)

val leaf : Label.t -> int -> t
(** [leaf l d] is [make l d []]. *)

val node : string -> int -> t list -> t
(** [node s d cs] is [make (Label.of_string s) d cs] — convenience. *)

val label : t -> Label.t
val data : t -> int
val children : t -> t list

(** {1 Navigation} *)

val subtree : t -> Path.t -> t option
(** [subtree t p] is the subtree [T|p] rooted at position [p], if [p] is a
    position of [t]. *)

val subtree_exn : t -> Path.t -> t
(** Like {!subtree}. @raise Not_found if [p] is not a position of [t]. *)

val positions : t -> Path.t list
(** All positions of the tree in preorder; the head is [Path.root]. *)

val mem_position : t -> Path.t -> bool

(** {1 Traversal} *)

val fold : (Path.t -> t -> 'a -> 'a) -> t -> 'a -> 'a
(** Preorder fold over all subtrees with their positions. *)

val iter : (Path.t -> t -> unit) -> t -> unit

val fold_bottom_up : (t -> 'a list -> 'a) -> t -> 'a
(** [fold_bottom_up f t] computes [f] at every node from the results of its
    children — the evaluation scheme of every bottom-up automaton in the
    paper. *)

(** {1 Statistics} *)

val size : t -> int
(** Number of nodes. *)

val height : t -> int
(** Number of nodes on a longest root-to-leaf branch; a leaf has height 1. *)

val branching : t -> int
(** Maximum number of children of any node (the branching width of §4.1's
    small-model property). *)

val data_values : t -> int list
(** [δ(T)]: the set of data values occurring in the tree, sorted,
    without duplicates. *)

val labels : t -> Label.t list
(** The set of labels occurring in the tree, sorted by intern id. *)

(** {1 Data-value transformations} *)

val map_data : (int -> int) -> t -> t
(** Apply a function to every data value (the paper's data
    transformations / bijections, Appendix C). *)

val canonicalize_data : t -> t
(** Rename data values to [0, 1, 2, ...] in order of first preorder
    occurrence. Two trees are equal up to a data bijection iff their
    canonical forms are equal. *)

val shared_data : t -> t -> int list
(** Data values occurring in both trees — the quantity the small-model
    property bounds for disjoint subtrees (§6 of the paper). *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints the paper's notation, e.g. [⟨a,1⟩(⟨b,1⟩, ⟨a,2⟩(⟨b,3⟩))].
    Children sit in a [Format] box with a break hint after each comma,
    so a tree wider than the margin (78 columns) wraps onto indented
    lines. *)

val to_string : t -> string
(** [pp] to a string, line breaks included. It is on the wire — the
    [witness] of a sat response — and inside store record
    fingerprints, so its bytes, wrapping and all, must not change;
    that is why it stays on [Format]. *)

val to_compact_string : t -> string
(** The machine-readable rendering [label:datum(child,child,...)] that
    {!of_string} parses back — [of_string (to_compact_string t) = Ok t]
    for every tree. Labels that are not plain identifiers are quoted.
    Every serialization that must round-trip (the wire protocol, the
    persistent store) uses this, never {!to_string}'s paper notation,
    which has no parser. *)

val of_string : string -> (t, string) result
(** Parse the compact syntax [label:datum(child,child,...)], e.g.
    ["a:1(b:2(c:3),d:1)"]. Labels are identifiers or quoted strings;
    data are non-negative integers; whitespace is free. This is the
    input syntax of the CLI's [check] command. *)

val of_string_exn : string -> t
(** @raise Failure on syntax errors. *)

val example_fig1 : unit -> t
(** The data tree of the paper's Example 1 (the [library/book/author]
    document next to it, as a plain data tree over Σ = \{a, b\}). *)
