(** JSON rendering of trees and formulas — [xpds xml --json], for
    piping into other tooling. Emit-only, built on
    the shared {!Json} library (lib/json). *)

val tree_to_json : Xpds_datatree.Data_tree.t -> string
(** [{"label": "...", "data": d, "children": [...]}] *)

val node_to_json : Xpds_xpath.Ast.node -> string
(** Structural AST rendering, with ["kind"] discriminators, plus the
    concrete syntax under ["text"]. *)
