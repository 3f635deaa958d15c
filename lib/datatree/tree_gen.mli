(** Generation of data trees.

    Two purposes (DESIGN.md §2.1): the exhaustive enumerator is the engine
    of the brute-force model-search baseline, and the random generator
    feeds property-based tests.

    Since the logic observes data values only up to bijection (§2.2), the
    enumerator assigns data values canonically: walking the tree in
    preorder, a node either reuses one of the [m] values already seen or
    introduces value [m] (a restricted-growth assignment). Every data tree
    is data-bijective to exactly one enumerated tree, which shrinks the
    search space by an exponential factor without losing completeness. *)

val enumerate :
  labels:Label.t list ->
  max_height:int ->
  max_width:int ->
  max_data:int ->
  Data_tree.t Seq.t
(** All data trees (up to data bijection) with height ≤ [max_height],
    branching ≤ [max_width], labels among [labels], and at most [max_data]
    distinct data values. The sequence is produced lazily. The choices
    of a node's label and datum are merged round-robin, so every prefix
    of the sequence holds trees of every root label in turn. *)

val count :
  labels:Label.t list ->
  max_height:int ->
  max_width:int ->
  max_data:int ->
  int
(** Length of {!enumerate} with the same parameters (forces it). *)

val random :
  ?state:Random.State.t ->
  labels:Label.t list ->
  max_height:int ->
  max_width:int ->
  max_data:int ->
  unit ->
  Data_tree.t
(** A uniformly-shaped random data tree within the bounds: each node draws
    a label uniformly, a data value uniformly in [0 .. max_data-1], and a
    child count uniformly in [0 .. max_width] (0 when the height budget is
    exhausted). *)
