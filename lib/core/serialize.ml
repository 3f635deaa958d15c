module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label
open Xpds_xpath.Ast

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

let axis_json = function
  | Self -> str "self"
  | Child -> str "child"
  | Descendant -> str "descendant"

let rec path_json = function
  | Axis a -> Json.Obj [ ("kind", str "axis"); ("axis", axis_json a) ]
  | Seq (a, b) ->
    Json.Obj
      [ ("kind", str "seq"); ("left", path_json a); ("right", path_json b) ]
  | Union (a, b) ->
    Json.Obj
      [ ("kind", str "union"); ("left", path_json a); ("right", path_json b) ]
  | Filter (a, n) ->
    Json.Obj
      [ ("kind", str "filter"); ("path", path_json a); ("test", node_json n) ]
  | Guard (n, a) ->
    Json.Obj
      [ ("kind", str "guard"); ("test", node_json n); ("path", path_json a) ]
  | Star a -> Json.Obj [ ("kind", str "star"); ("path", path_json a) ]

and node_json = function
  | True -> Json.Obj [ ("kind", str "true") ]
  | False -> Json.Obj [ ("kind", str "false") ]
  | Lab l ->
    Json.Obj [ ("kind", str "label"); ("label", str (Label.to_string l)) ]
  | Not n -> Json.Obj [ ("kind", str "not"); ("arg", node_json n) ]
  | And (a, b) ->
    Json.Obj
      [ ("kind", str "and"); ("left", node_json a); ("right", node_json b) ]
  | Or (a, b) ->
    Json.Obj
      [ ("kind", str "or"); ("left", node_json a); ("right", node_json b) ]
  | Exists p -> Json.Obj [ ("kind", str "exists"); ("path", path_json p) ]
  | Cmp (p, op, q) ->
    Json.Obj
      [ ("kind", str "cmp");
        ("op", str (match op with Eq -> "eq" | Neq -> "neq"));
        ("left", path_json p);
        ("right", path_json q)
      ]

let node_to_json n =
  Json.to_string
    (Json.Obj
       [ ("text", str (Xpds_xpath.Pp.node_to_string n));
         ("ast", node_json n)
       ])
