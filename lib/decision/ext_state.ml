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

(* --- subsumption (DESIGN.md §9, "Subsumption pruning") ---

   The upward-observable footprint of an extended state: its parents
   consult only [states] (counting atoms, acceptance), the atom matrices
   (the case-1 lift), [step_up many] (the many-source rule), and the
   step-ups of the described values (class bases — a value with an empty
   step-up is invisible to every merging). [unique] and the value
   descriptions themselves are never read above the node, so states
   agreeing on this footprint are interchangeable as children. *)

type profile = {
  p_states : Bitv.t;
  p_eq : Bitv.t;
  p_neq : Bitv.t;
  p_su_many : Bitv.t;
  p_sus : Bitv.t array;
      (** step-ups of the visible described values, sorted *)
}

let profile ~su t =
  let p_sus =
    Array.of_list
      (List.filter_map
         (fun v ->
           let s = su v in
           if Bitv.is_empty s then None else Some s)
         (Array.to_list t.values))
  in
  Array.sort Bitv.compare p_sus;
  { p_states = t.states; p_eq = t.eq; p_neq = t.neq;
    p_su_many = su t.many; p_sus }

let profile_equal a b =
  Bitv.equal a.p_states b.p_states
  && Bitv.equal a.p_eq b.p_eq && Bitv.equal a.p_neq b.p_neq
  && Bitv.equal a.p_su_many b.p_su_many
  && Array.length a.p_sus = Array.length b.p_sus
  && Array.for_all2 Bitv.equal a.p_sus b.p_sus

let profile_hash p =
  Hashtbl.hash
    ( Bitv.hash p.p_states,
      Bitv.hash p.p_eq,
      Bitv.hash p.p_neq,
      Bitv.hash p.p_su_many,
      Array.map Bitv.hash p.p_sus )

(* Injection of [a]'s visible step-ups into [b]'s with pointwise ⊆:
   Kuhn's augmenting paths over a bipartite graph of at most t0 items a
   side (word-level [Bitv.subset] edges). *)
let sus_inject a b =
  let na = Array.length a and nb = Array.length b in
  na <= nb
  && begin
       let matched = Array.make nb (-1) in
       let rec augment i seen =
         let rec go j =
           if j >= nb then false
           else if (not seen.(j)) && Bitv.subset a.(i) b.(j) then begin
             seen.(j) <- true;
             if matched.(j) < 0 || augment matched.(j) seen then begin
               matched.(j) <- i;
               true
             end
             else go (j + 1)
           end
           else go (j + 1)
         in
         go 0
       in
       let rec all i =
         i >= na || (augment i (Array.make nb false) && all (i + 1))
       in
       all 0
     end

(* [subsumed_by a b] — the pointwise order: every upward-observable
   capability of [a] is one of [b]. Sound as a pruning order only under
   the monotone gate (Emptiness.mono_gate): positive-polarity data
   atoms, no FCountZero/FCountLt, trivial SCCs. *)
let subsumed_by a b =
  Bitv.subset a.p_states b.p_states
  && Bitv.subset a.p_eq b.p_eq
  && Bitv.subset a.p_neq b.p_neq
  && Bitv.subset a.p_su_many b.p_su_many
  && sus_inject a.p_sus b.p_sus

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
