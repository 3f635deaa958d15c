(* One element of each sequence in turn, dropping the exhausted ones: a
   fair merge of finitely many sequences. *)
let rec round_robin seqs () =
  let rec step later = function
    | [] -> if later = [] then Seq.Nil else round_robin (List.rev later) ()
    | s :: rest -> (
      match s () with
      | Seq.Nil -> step later rest
      | Seq.Cons (x, s') -> Seq.Cons (x, fun () -> step (s' :: later) rest))
  in
  step [] seqs

(* Enumerate trees together with the number of distinct data values used so
   far (threaded through a preorder traversal): a node may reuse any value
   in [0..m-1] or, if [m < max_data], introduce the fresh value [m]. The
   trees of each (label, datum) choice of a node are merged round-robin,
   so any prefix of the sequence spreads over every root label instead
   of exhausting the first one (a budgeted model search reads only a
   prefix). *)
let enumerate ~labels ~max_height ~max_width ~max_data =
  if labels = [] then invalid_arg "Tree_gen.enumerate: empty label list";
  if max_data < 1 then invalid_arg "Tree_gen.enumerate: max_data < 1";
  let rec trees height m : (Data_tree.t * int) Seq.t =
    if height <= 0 then Seq.empty
    else
      (* values 0..m-1 reuse, value m is fresh *)
      let data_choices = List.init (min (m + 1) max_data) Fun.id in
      round_robin
        (List.concat_map
           (fun lbl ->
             List.map
               (fun d ->
                 let m' = max m (d + 1) in
                 Seq.map
                   (fun (children, m'') -> (Data_tree.make lbl d children, m''))
                   (forests (height - 1) max_width m'))
               data_choices)
           labels)
  (* Forests of at most [width] trees, each of height ≤ [height]. *)
  and forests height width m : (Data_tree.t list * int) Seq.t =
    let empty = Seq.return ([], m) in
    if width <= 0 || height <= 0 then empty
    else
      Seq.append empty
        (Seq.concat_map
           (fun (t, m') ->
             Seq.map
               (fun (rest, m'') -> (t :: rest, m''))
               (forests height (width - 1) m'))
           (trees height m))
  in
  Seq.map fst (trees max_height 0)

let count ~labels ~max_height ~max_width ~max_data =
  Seq.length (enumerate ~labels ~max_height ~max_width ~max_data)

let random ?state ~labels ~max_height ~max_width ~max_data () =
  let st =
    match state with Some s -> s | None -> Random.State.make_self_init ()
  in
  if labels = [] then invalid_arg "Tree_gen.random: empty label list";
  let labels = Array.of_list labels in
  let rec go height =
    let lbl = labels.(Random.State.int st (Array.length labels)) in
    let d = Random.State.int st max_data in
    let n_children =
      if height <= 1 then 0 else Random.State.int st (max_width + 1)
    in
    let children = List.init n_children (fun _ -> go (height - 1)) in
    Data_tree.make lbl d children
  in
  go (max 1 max_height)
