(** JSON rendering of data trees — [xpds xml --json], for piping into
    other tooling. Emit-only, built on the shared {!Json} library
    (lib/json). *)

val tree_to_json : Xpds_datatree.Data_tree.t -> string
(** [{"label": "...", "data": d, "children": [...]}] *)
