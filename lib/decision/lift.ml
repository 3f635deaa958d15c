module Data_tree = Xpds_datatree.Data_tree

(* The assignments tried at most. A miss costs about 15 ms at this cap
   on an 11-node chain (DESIGN §2.4g). *)
let max_assignments = 1_024

(* [w] with the datum [a.(i)] on its [i]-th node in preorder. *)
let assign w a =
  let i = ref 0 in
  let rec go t =
    let d = a.(!i) in
    incr i;
    let children = List.map go (Data_tree.children t) in
    Data_tree.make (Data_tree.label t) d children
  in
  go w

(* Step [a] to its successor in restricted-growth order, where
   [top.(i)] is the largest of [a.(0..i)]: the last position that can
   still grow grows by one and every later one drops to 0. [false]
   after the last assignment, all values distinct. *)
let next a top =
  let rec grow i =
    if i < 1 then false
    else if a.(i) <= top.(i - 1) then begin
      a.(i) <- a.(i) + 1;
      top.(i) <- max top.(i - 1) a.(i);
      for j = i + 1 to Array.length a - 1 do
        a.(j) <- 0;
        top.(j) <- top.(i)
      done;
      true
    end
    else grow (i - 1)
  in
  grow (Array.length a - 1)

let search ?should_stop ~holds w =
  let n = Data_tree.size w in
  let a = Array.make n 0 and top = Array.make n 0 in
  let stopped () = match should_stop with Some f -> f () | None -> false in
  let rec go tried =
    if tried >= max_assignments || stopped () then None
    else
      let t = assign w a in
      if holds t then Some t else if next a top then go (tried + 1) else None
  in
  go 0
