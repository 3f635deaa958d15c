(* Shared QCheck generators for data trees and formulas. *)

open Xpds_xpath.Ast
module Data_tree = Xpds_datatree.Data_tree
module Tree_gen = Xpds_datatree.Tree_gen
module Label = Xpds_datatree.Label

let default_labels = [ "a"; "b"; "c" ]

let tree_gen ?(labels = default_labels) ?(max_height = 4) ?(max_width = 3)
    ?(max_data = 3) () : Data_tree.t QCheck.Gen.t =
 fun st ->
  Tree_gen.random ~state:st
    ~labels:(List.map Label.of_string labels)
    ~max_height ~max_width ~max_data ()

let arb_tree ?labels ?max_height ?max_width ?max_data () =
  QCheck.make
    ~print:Data_tree.to_string
    (tree_gen ?labels ?max_height ?max_width ?max_data ())

(* Random formulas, fragment-configurable. *)
type cfg = {
  child : bool;
  desc : bool;
  data : bool;
  star : bool;
  labels : string list;
}

let full_cfg =
  { child = true; desc = true; data = true; star = true;
    labels = default_labels }

let star_free_cfg = { full_cfg with star = false }
let data_free_cfg = { full_cfg with data = false; star = false }
let child_only_cfg = { star_free_cfg with desc = false }
let desc_only_cfg = { star_free_cfg with child = false }

(* The node and path generators of one fragment, by fuel. *)
let gens_cfg cfg =
  let open QCheck.Gen in
  let lab =
    map
      (fun s -> Lab (Label.of_string s))
      (oneofl cfg.labels)
  in
  let axes =
    List.concat
      [ [ Axis Self ];
        (if cfg.child then [ Axis Child ] else []);
        (if cfg.desc then [ Axis Descendant ] else [])
      ]
  in
  let rec node fuel st =
    if fuel <= 0 then (oneof [ lab; oneofl [ True; False ] ]) st
    else
      let sub = node (fuel / 2) in
      let p = path (fuel / 2) in
      let cases =
        [ (3, lab);
          (1, return True);
          (1, return False);
          (2, map (fun n -> Not n) sub);
          (2, map2 (fun a b -> And (a, b)) sub sub);
          (2, map2 (fun a b -> Or (a, b)) sub sub);
          (3, map (fun a -> Exists a) p)
        ]
        @
        if cfg.data then
          [ (3,
             map2 (fun a b -> Cmp (a, Eq, b)) p p);
            (2, map2 (fun a b -> Cmp (a, Neq, b)) p p)
          ]
        else []
      in
      frequency cases st
  and path fuel st =
    if fuel <= 0 then (oneofl axes) st
    else
      let sub = path (fuel / 2) in
      let n = node (fuel / 2) in
      let cases =
        [ (3, oneofl axes);
          (2, map2 (fun a b -> Seq (a, b)) sub sub);
          (1, map2 (fun a b -> Union (a, b)) sub sub);
          (3, map2 (fun a b -> Filter (a, b)) sub n);
          (1, map2 (fun b a -> Guard (a, b)) sub n)
        ]
        @ if cfg.star then [ (1, map (fun a -> Star a) sub) ] else []
      in
      frequency cases st
  in
  (node, path)

let gen_node_cfg cfg : node QCheck.Gen.t =
  QCheck.Gen.(sized_size (int_bound 14) (fst (gens_cfg cfg)))

let gen_path_cfg cfg : path QCheck.Gen.t =
  QCheck.Gen.(sized_size (int_bound 14) (snd (gens_cfg cfg)))

let gen_node = gen_node_cfg full_cfg

let arb_node_cfg cfg =
  QCheck.make ~print:Xpds_xpath.Pp.node_to_string (gen_node_cfg cfg)

let arb_node = arb_node_cfg full_cfg

(* Turn a QCheck property test into an alcotest case. *)
let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb prop)
