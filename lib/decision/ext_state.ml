type t = {
  states : Bitv.t;
  eq : Bitv.t;
  neq : Bitv.t;
  values : Bitv.t array;
  unique : int array;
  many : Bitv.t;
  mutable tag : int;
}

let pair_index ~k_card k1 k2 = (k1 * k_card) + k2
let empty_matrix ~k_card = Bitv.empty (k_card * k_card)

let matrix_add ~k_card k1 k2 m =
  Bitv.add (pair_index ~k_card k1 k2) (Bitv.add (pair_index ~k_card k2 k1) m)

let matrix_mem ~k_card k1 k2 m = Bitv.mem (pair_index ~k_card k1 k2) m

let k_card_of t = Array.length t.unique
let nonzero t k = matrix_mem ~k_card:(k_card_of t) k k t.eq
let eq_at t k1 k2 = matrix_mem ~k_card:(k_card_of t) k1 k2 t.eq
let neq_at t k1 k2 = matrix_mem ~k_card:(k_card_of t) k1 k2 t.neq
let accepting t final = not (Bitv.is_empty (Bitv.inter t.states final))

let validate t =
  let k_card = k_card_of t in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec values_sorted i =
    i >= Array.length t.values - 1
    || Bitv.compare t.values.(i) t.values.(i + 1) <= 0
       && values_sorted (i + 1)
  in
  if Array.exists Bitv.is_empty t.values then err "empty value description"
  else if not (values_sorted 0) then err "values not sorted"
  else if
    not
      (Bitv.for_all
         (fun p ->
           let k1 = p / k_card and k2 = p mod k_card in
           matrix_mem ~k_card k2 k1 t.eq)
         t.eq
      && Bitv.for_all
           (fun p ->
             let k1 = p / k_card and k2 = p mod k_card in
             matrix_mem ~k_card k2 k1 t.neq)
           t.neq)
  then err "atom matrices not symmetric"
  else
    let check_k k =
      let memberships =
        Array.to_list t.values
        |> List.mapi (fun i v -> (i, v))
        |> List.filter (fun (_, v) -> Bitv.mem k v)
        |> List.map fst
      in
      let u = t.unique.(k) in
      if u >= Array.length t.values then err "unique index out of range"
      else if u >= 0 && not (Bitv.mem k t.values.(u)) then
        err "unique value %d does not contain k%d" u k
      else if u >= 0 && Bitv.mem k t.many then
        err "k%d both unique and many" k
      else if u >= 0 && memberships <> [ u ] then
        err "k%d unique to %d but member of several values" k u
      else if List.length memberships >= 2 && not (Bitv.mem k t.many) then
        err "k%d in two described values but not many" k
      else if memberships <> [] && not (nonzero t k) then
        err "k%d describes a value but has no diagonal eq" k
      else Ok ()
    in
    let rec go k =
      if k >= k_card then Ok ()
      else match check_k k with Ok () -> go (k + 1) | e -> e
    in
    go 0

(* Canonical form: sort the value multiset and remap [unique]
   accordingly. Two values with equal descriptions are interchangeable
   (no [unique] can point at either — both would contain that k, making
   it many), so any stable assignment is canonical. *)
let canonicalize ~states ~eq ~neq ~values ~unique ~many =
  (* stable insertion sort of the value indices: a handful of values *)
  let n = Array.length values in
  let order = Array.init n Fun.id in
  for i = 1 to n - 1 do
    let x = order.(i) in
    let j = ref i in
    while !j > 0 && Bitv.compare values.(order.(!j - 1)) values.(x) > 0 do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- x
  done;
  let position = Array.make n 0 in
  Array.iteri (fun rank i -> position.(i) <- rank) order;
  let values' = Array.map (fun i -> values.(i)) order in
  let unique' =
    Array.map (fun u -> if u < 0 then -1 else position.(u)) unique
  in
  { states; eq; neq; values = values'; unique = unique'; many; tag = -1 }

let make ~states ~eq ~neq ~values ~unique ~many =
  let t = canonicalize ~states ~eq ~neq ~values ~unique ~many in
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Ext_state.make: " ^ msg)

(* The engine hot path assembles states whose invariants hold by
   construction (lib/decision/transition.ml); skipping the O(|K|·t0)
   validation there is worth ~10% of a cold solve. Everything else goes
   through [make]. *)
let make_unchecked = canonicalize

let tag t = t.tag
let set_tag t id = t.tag <- id

let equal a b =
  a == b
  || Bitv.equal a.states b.states
     && Bitv.equal a.eq b.eq && Bitv.equal a.neq b.neq
     && Array.length a.values = Array.length b.values
     && Array.for_all2 Bitv.equal a.values b.values
     && a.unique = b.unique
     && Bitv.equal a.many b.many

let compare a b =
  let c = Bitv.compare a.states b.states in
  if c <> 0 then c
  else
    let c = Bitv.compare a.eq b.eq in
    if c <> 0 then c
    else
      let c = Bitv.compare a.neq b.neq in
      if c <> 0 then c
      else
        let c =
          Stdlib.compare
            (Array.map Bitv.elements a.values)
            (Array.map Bitv.elements b.values)
        in
        if c <> 0 then c
        else
          let c = Stdlib.compare a.unique b.unique in
          if c <> 0 then c else Bitv.compare a.many b.many

let hash t =
  Hashtbl.hash
    ( Bitv.hash t.states,
      Bitv.hash t.eq,
      Bitv.hash t.neq,
      Array.map Bitv.hash t.values,
      t.unique,
      Bitv.hash t.many )

let pp ppf t =
  Format.fprintf ppf "@[<v>ext-state: C=%a many=%a@," Bitv.pp t.states
    Bitv.pp t.many;
  Array.iteri
    (fun i v ->
      let uniques =
        List.filter (fun k -> t.unique.(k) = i)
          (List.init (Array.length t.unique) Fun.id)
      in
      Format.fprintf ppf "value %d: reach=%a unique-of=%a@," i Bitv.pp v
        (Fmt.Dump.list Fmt.int) uniques)
    t.values;
  Format.fprintf ppf "eq=%a neq=%a@]" Bitv.pp t.eq Bitv.pp t.neq
