module Data_tree = Xpds_datatree.Data_tree
module Label = Xpds_datatree.Label

exception No_run of string
exception Ambiguous_run of string

type node_info = {
  states : Bitv.t;
  reach : (int * Bitv.t) list;
  info_children : node_info list;
}

(* The label-independent part of Reach at a node: per datum d, sorted by
   d, the union of the children's step-ups of their d-reach sets, plus
   kI ([k_initial], {kI} as a set) for the node's own datum. *)
let base (pf : Pathfinder.t) ~k_initial ~datum ~(children : node_info list) =
  let entries =
    match children with
    | [] -> []
    | [ c ] -> c.reach
    | _ ->
      List.sort
        (fun (d1, _) (d2, _) -> Int.compare d1 d2)
        (List.concat_map (fun c -> c.reach) children)
  in
  (* [own]: the node's datum has no entry yet. *)
  let rec group own entries =
    match entries with
    | [] -> if own then [ (datum, k_initial) ] else []
    | (d, _) :: _ when own && datum < d ->
      (datum, k_initial) :: group false entries
    | (d, _) :: _ ->
      let b = Bitv.builder pf.Pathfinder.n_states in
      if d = datum then Bitv.add_in_place pf.Pathfinder.initial b;
      let rec absorb = function
        | (d', ks) :: rest when d' = d ->
          Bitv.iter
            (fun k -> ignore (Bitv.union_into pf.Pathfinder.up_bits.(k) b))
            ks;
          absorb rest
        | rest -> rest
      in
      let rest = absorb entries in
      (d, Bitv.freeze b) :: group (own && d <> datum) rest
  in
  group true entries

(* Reach sets under a (partial) label λ(n): the base closed under the
   non-moving transitions λ(n) enables, empty sets dropped. *)
let close (pf : Pathfinder.t) ~label base =
  List.filter_map
    (fun (d, ks) ->
      let closed = Pathfinder.closure pf ~label ks in
      if Bitv.is_empty closed then None else Some (d, closed))
    base

let eval_ex reach k1 k2 (op : Xpds_xpath.Ast.op) =
  match op with
  | Eq ->
    List.exists (fun (_, ks) -> Bitv.mem k1 ks && Bitv.mem k2 ks) reach
  | Neq ->
    List.exists
      (fun (d1, ks1) ->
        Bitv.mem k1 ks1
        && List.exists
             (fun (d2, ks2) -> d2 <> d1 && Bitv.mem k2 ks2)
             reach)
      reach

let rec eval_form (m : Bip.t) ~tree_label ~reach ~(children : node_info list)
    = function
  | Bip.FTrue -> true
  | Bip.FFalse -> false
  | Bip.FLab a -> Label.equal a tree_label
  | Bip.FNot f -> not (eval_form m ~tree_label ~reach ~children f)
  | Bip.FAnd (f, g) ->
    eval_form m ~tree_label ~reach ~children f
    && eval_form m ~tree_label ~reach ~children g
  | Bip.FOr (f, g) ->
    eval_form m ~tree_label ~reach ~children f
    || eval_form m ~tree_label ~reach ~children g
  | Bip.FEx (k1, k2, op) -> eval_ex (reach ()) k1 k2 op
  | Bip.FCountGe (q, n) ->
    let count =
      List.length (List.filter (fun c -> Bitv.mem q c.states) children)
    in
    count >= n
  | Bip.FCountZero q ->
    List.for_all (fun c -> not (Bitv.mem q c.states)) children
  | Bip.FCountLt (q, n) ->
    List.length (List.filter (fun c -> Bitv.mem q c.states) children) < n

let max_component_size = 20

(* Decide the states of one SCC [comp] given the already-decided label;
   [reach_under label] closes the node's base under a label. *)
let decide_component m ~tree_label ~reach_under ~children ~deps label comp =
  match comp with
  | [ q ] when not (Bitv.mem q deps.(q)) ->
    let reach () = reach_under label in
    if eval_form m ~tree_label ~reach ~children m.Bip.mu.(q) then
      Bitv.add q label
    else label
  | _ ->
    if List.length comp > max_component_size then
      raise
        (No_run
           (Printf.sprintf
              "interleaved component of size %d exceeds the search limit"
              (List.length comp)));
    (* Enumerate the 2^|comp| candidate labellings and keep the
       consistent ones. *)
    let consistent = ref [] in
    let rec assign chosen = function
      | [] ->
        let candidate =
          List.fold_left (fun acc q -> Bitv.add q acc) label chosen
        in
        let reach () = reach_under candidate in
        let ok =
          List.for_all
            (fun q ->
              eval_form m ~tree_label ~reach ~children m.Bip.mu.(q)
              = List.mem q chosen)
            comp
        in
        if ok then consistent := candidate :: !consistent
      | q :: rest ->
        assign (q :: chosen) rest;
        assign chosen rest
    in
    assign [] comp;
    (match !consistent with
    | [ label' ] -> label'
    | [] ->
      raise
        (No_run
           "no labelling satisfies the interleaved transition formulas")
    | _ ->
      raise
        (Ambiguous_run
           "several labellings satisfy the interleaved transition \
            formulas"))

let run m tree =
  let components = Bip.sccs m in
  let deps = Bip.dependencies m in
  let rec in_sigma t =
    List.exists (Label.equal (Data_tree.label t)) m.Bip.labels
    && List.for_all in_sigma (Data_tree.children t)
  in
  if not (in_sigma tree) then
    raise
      (Bip.Ill_formed "the data tree uses labels outside the automaton's Σ");
  let pf = m.Bip.pf in
  let no_states = Bitv.empty m.Bip.q_card in
  let k_initial = Bitv.singleton pf.Pathfinder.n_states pf.Pathfinder.initial in
  let rec go t =
    let children = List.map go (Data_tree.children t) in
    let tree_label = Data_tree.label t in
    let base = base pf ~k_initial ~datum:(Data_tree.data t) ~children in
    (* μ reaches an FEx atom only now and then: close the base lazily,
       and again only when the label has grown since. *)
    let last = ref None in
    let reach_under label =
      match !last with
      | Some (l, reach) when l == label -> reach
      | _ ->
        let reach = close pf ~label base in
        last := Some (label, reach);
        reach
    in
    let label =
      List.fold_left
        (decide_component m ~tree_label ~reach_under ~children ~deps)
        no_states components
    in
    { states = label; reach = reach_under label; info_children = children }
  in
  go tree

let states_at_root m tree = (run m tree).states

let accepts m tree =
  match states_at_root m tree with
  | states -> not (Bitv.is_empty (Bitv.inter states m.Bip.final))
  | exception Bip.Ill_formed _ -> false
