module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let palette =
  [| "#a6cee3"; "#b2df8a"; "#fb9a99"; "#fdbf6f"; "#cab2d6"; "#ffff99";
     "#1f78b4"; "#33a02c"; "#e31a1c"; "#ff7f00"
  |]

let data_tree t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph data_tree {\n  node [shape=box, style=filled];\n";
  let color_of = Hashtbl.create 16 in
  let color d =
    match Hashtbl.find_opt color_of d with
    | Some c -> c
    | None ->
      let c = palette.(Hashtbl.length color_of mod Array.length palette) in
      Hashtbl.add color_of d c;
      c
  in
  let next_id = ref 0 in
  let rec go t =
    let id = !next_id in
    incr next_id;
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s : %d\", fillcolor=\"%s\"];\n" id
         (escape (Label.to_string (Data_tree.label t)))
         (Data_tree.data t)
         (color (Data_tree.data t)));
    List.iter
      (fun c ->
        let cid = go c in
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id cid))
      (Data_tree.children t);
    id
  in
  let (_ : int) = go t in
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let nfa (a : Xpds_xpath.Ast.node Nfa.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph nfa {\n  rankdir=LR;\n  node [shape=circle];\n";
  Bitv.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  s%d [shape=doublecircle];\n" s))
    a.Nfa.finals;
  Bitv.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  init%d [shape=point];\n  init%d -> s%d;\n" s s s))
    a.Nfa.initials;
  List.iter
    (fun (s, letter, t) ->
      match letter with
      | Nfa.Down ->
        Buffer.add_string buf
          (Printf.sprintf "  s%d -> s%d [label=\"down\", style=bold];\n" s t)
      | Nfa.Test phi ->
        Buffer.add_string buf
          (Printf.sprintf "  s%d -> s%d [label=\"[%s]\"];\n" s t
             (escape (Xpds_xpath.Pp.node_to_string phi))))
    a.Nfa.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pathfinder_edges buf (p : Pathfinder.t) =
  Buffer.add_string buf
    (Printf.sprintf "  k%d [shape=diamond];\n" p.Pathfinder.initial);
  Array.iteri
    (fun k targets ->
      List.iter
        (fun k' ->
          Buffer.add_string buf
            (Printf.sprintf "  k%d -> k%d [label=\"up\", style=bold];\n" k
               k'))
        targets)
    p.Pathfinder.up;
  Array.iteri
    (fun q per_k ->
      Array.iteri
        (fun k targets ->
          List.iter
            (fun k' ->
              Buffer.add_string buf
                (Printf.sprintf "  k%d -> k%d [label=\"q%d\"];\n" k k' q))
            targets)
        per_k)
    p.Pathfinder.read

let pathfinder (p : Pathfinder.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "digraph pathfinder {\n  rankdir=BT;\n  node [shape=circle];\n";
  pathfinder_edges buf p;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let bip (m : Bip.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph bip {\n  rankdir=BT;\n  node [shape=circle];\n";
  Buffer.add_string buf "  subgraph cluster_states {\n    label=\"BIP states\";\n    node [shape=box];\n";
  Array.iteri
    (fun q f ->
      let shape_extra =
        if Bitv.mem q m.Bip.final then ", peripheries=2" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "    q%d [label=\"q%d: %s\"%s];\n" q q
           (escape (Format.asprintf "%a" Bip.pp_form f))
           shape_extra))
    m.Bip.mu;
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  subgraph cluster_pathfinder {\n    label=\"pathfinder\";\n";
  pathfinder_edges buf m.Bip.pf;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf
