(** The bulk evaluator: node and path expressions of the downward logic
    over an array-encoded document ({!Doc}), with bitset node sets.

    Semantically this is exactly {!Xpds_xpath.Semantics} — the two are
    differentially fuzzed against each other ({!Oracle},
    [test/t_eval.ml]) — but engineered for the many-cheap-queries
    workload instead of oracle clarity:

    - node sets are {!Bitv} vectors over pre-order ids, so boolean
      connectives are word-level scans;
    - a node formula sees a path α only through ⟨α⟩ and through the data
      values α reaches, so paths are never materialised as relations.
      Instead α maps a {e payload} (a set per node, stored as a few
      words per node in one flat array) to its {e image}: at [x], the
      union of the payload over [[α]](x). Each axis is one linear
      sweep over the parent array (pre-order ids put every child after
      its parent), so a star-free path costs O(|α|·n·k) for k words per
      node;
    - ⟨α⟩ takes the image of one bit per node; comparisons take the
      images of each node's data-class bit ({e data classes} are a
      dense renaming of the datums), so [α = β] and [α ≠ β] are
      word-level tests on two images;
    - [α*] is a single descending-id dynamic program over the rows of α
      (the image of the identity payload): downward paths only move
      into the subtree, so the image at a higher id is complete before
      any lower id needs it;
    - node sets and the two kinds of path images are memoized in the
      evaluator and shared across formulas evaluated on it — a batch of
      queries pays for each distinct subformula once ({!Batch}).

    Evaluators are single-domain mutable values (memo tables); share the
    underlying {!Doc.t} across domains instead. *)

type t
(** An evaluator: a document plus memo tables. *)

exception Deadline
(** Raised by evaluation when the [should_stop] hook fires; the memo
    tables remain valid (no partial entries are stored). *)

val create : ?should_stop:(unit -> bool) -> Doc.t -> t
(** [should_stop] is polled on the first visit of every sub-expression —
    the same cooperative-deadline contract as the solver's fixpoint. *)

val doc : t -> Doc.t

val nodes : t -> Xpds_xpath.Ast.node -> Bitv.t
(** [[ϕ]]: the set of pre-order ids where [ϕ] holds. *)

val path_rows : t -> Xpds_xpath.Ast.path -> Bitv.t array
(** [[α]] as per-source rows: [(path_rows e α).(x)] is [{y | (x,y) ∈ [[α]]}]
    — the image of the identity payload, built afresh on every call
    (n²/63 words; for tests and inspection, not the query path). *)

val holds_at : t -> Xpds_xpath.Ast.node -> int -> bool
val holds_at_root : t -> Xpds_xpath.Ast.node -> bool

val check_somewhere : t -> Xpds_xpath.Ast.node -> bool
(** [[ϕ]] ≠ ∅ — the satisfaction relation of Definition 1. *)

val selected_positions : t -> Xpds_xpath.Ast.node -> Xpds_datatree.Path.t list
(** [[ϕ]] as ℕ* positions in preorder (the {!Xpds_xpath.Semantics.sat_nodes}
    rendering, for differential comparison and the CLI). *)

val node_evals : t -> int
(** Total node×sub-expression evaluations performed so far — the work
    counter the throughput benchmarks report. Every distinct
    sub-expression, node or path, is charged [n] once, when it is first
    evaluated on this evaluator, whatever payload a path is applied to;
    one whose evaluation a {!Deadline} cut short is charged again when
    it is next evaluated. *)

val check : Xpds_datatree.Data_tree.t -> Xpds_xpath.Ast.node -> bool
(** One-shot [holds_at_root] on a fresh evaluator. *)
