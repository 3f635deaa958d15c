(** The witness lift: give a data-free model its data.

    Every model of η is a model of its data-free relaxation η′
    ({!Sat.data_free_relaxation}), and by the small-model property
    (Thm 4) a model needs only a few data values shared between
    disjoint subtrees. So a witness of η′ often becomes a model of η
    once its nodes get the right data. [search] keeps the witness's
    skeleton (shape and labels) and tries data assignments to its
    nodes, in preorder, in restricted-growth order: each node takes a
    datum already used by an earlier node or the next fresh one, so
    every partition of the nodes into equal-data classes comes up once,
    all-equal first. A hit is whatever [holds] accepts; a miss says
    nothing. *)

val search :
  ?should_stop:(unit -> bool) ->
  holds:(Xpds_datatree.Data_tree.t -> bool) ->
  Xpds_datatree.Data_tree.t ->
  Xpds_datatree.Data_tree.t option
(** [search ~holds w] is the first assignment of data to [w]'s skeleton
    on which [holds] is true ({!Sat.lift} passes both replays). [None] after 1 024 candidates,
    after the last assignment, or as soon as [should_stop] (polled
    before each candidate) returns [true]. *)
