module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label

(* All rendering goes through the shared [Json] library (lib/json); this
   module only decides the shape of each object. *)

let str s = Json.Str s
let int i = Json.Num (float_of_int i)

let rec tree_json t =
  Json.Obj
    [ ("label", str (Label.to_string (Data_tree.label t)));
      ("data", int (Data_tree.data t));
      ("children", Json.Arr (List.map tree_json (Data_tree.children t)))
    ]

let tree_to_json t = Json.to_string (tree_json t)
