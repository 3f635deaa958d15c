(** Graphviz (dot) rendering of the paper's objects — data trees,
    NFAs, pathfinders and BIP automata — for inspection and for the
    figures in write-ups. The output is self-contained dot source;
    render with e.g. [dot -Tsvg]. *)

val data_tree : Xpds_datatree.Data_tree.t -> string
(** Nodes labelled ["label : datum"]; equal data values share a color
    class, which makes the witness trees of the decision procedure
    readable at a glance. *)

val nfa : Xpds_xpath.Ast.node Nfa.t -> string
(** Test letters are printed with the concrete formula syntax; [↓] edges
    are bold. Initial states get an inbound arrow, final states a double
    circle. *)

val pathfinder : Pathfinder.t -> string
(** Moving transitions ([up]) are bold; non-moving transitions are
    labelled with the BIP state they read. *)

val bip : Bip.t -> string
(** The pathfinder graph plus one record node per BIP state showing its
    μ-formula; final states are doubled. *)
