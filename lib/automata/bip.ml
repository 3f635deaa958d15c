module Label = Xpds_datatree.Label

type form =
  | FTrue
  | FFalse
  | FLab of Label.t
  | FNot of form
  | FAnd of form * form
  | FOr of form * form
  | FEx of int * int * Xpds_xpath.Ast.op
  | FCountGe of int * int
  | FCountZero of int
  | FCountLt of int * int

(* The transitions into each pathfinder state, in compressed rows: those
   into [k] are [off.(k) .. off.(k+1)-1], each with its source [src] and
   the q it reads ([lbl], -1 for a moving transition). *)
type preds = { off : int array; src : int array; lbl : int array }

type t = {
  labels : Label.t list;
  q_card : int;
  mu : form array;
  final : Bitv.t;
  pf : Pathfinder.t;
  preds : preds;
  deps : Bitv.t array;
  components : int list list;
}

exception Ill_formed of string

let ill_formed fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt

let rec check_form ~q_card ~k_card ~positive = function
  | FTrue | FFalse | FLab _ -> ()
  | FNot f -> check_form ~q_card ~k_card ~positive:(not positive) f
  | FAnd (f, g) | FOr (f, g) ->
    check_form ~q_card ~k_card ~positive f;
    check_form ~q_card ~k_card ~positive g
  | FEx (k1, k2, _) ->
    if k1 < 0 || k1 >= k_card || k2 < 0 || k2 >= k_card then
      ill_formed "FEx(%d,%d): pathfinder state out of range" k1 k2
  | FCountGe (q, n) ->
    if q < 0 || q >= q_card then ill_formed "FCountGe: state q%d" q;
    if n < 1 then ill_formed "FCountGe: constant %d < 1" n;
    if not positive then
      ill_formed "FCountGe(q%d,%d) occurs under a negation" q n
  | FCountZero q ->
    if q < 0 || q >= q_card then ill_formed "FCountZero: state q%d" q
  | FCountLt (q, n) ->
    if q < 0 || q >= q_card then ill_formed "FCountLt: state q%d" q;
    if n < 1 then ill_formed "FCountLt: constant %d < 1" n

let fold_form f init form =
  let rec go acc = function
    | FTrue | FFalse | FLab _ -> acc
    | FNot g -> go acc g
    | FAnd (g, h) | FOr (g, h) -> go (go acc g) h
    | (FEx _ | FCountGe _ | FCountZero _ | FCountLt _) as atom ->
      f acc atom
  in
  go init form

let ex_atoms m =
  Array.fold_left
    (fold_form (fun acc atom ->
         match atom with
         | FEx (k1, k2, op) ->
           if List.mem (k1, k2, op) acc then acc else (k1, k2, op) :: acc
         | _ -> acc))
    [] m.mu
  |> List.rev

let max_count m =
  Array.fold_left
    (fold_form (fun acc atom ->
         match atom with FCountGe (_, n) -> max acc n | _ -> acc))
    0 m.mu

let predecessors (pf : Pathfinder.t) =
  let k_card = pf.Pathfinder.n_states in
  let off = Array.make (k_card + 1) 0 in
  (* Most cells are empty: match before a closure is built for one. *)
  let count _ row =
    for k = 0 to k_card - 1 do
      match row.(k) with
      | [] -> ()
      | targets ->
        List.iter (fun k' -> off.(k' + 1) <- off.(k' + 1) + 1) targets
    done
  in
  count (-1) pf.Pathfinder.up;
  Array.iteri count pf.Pathfinder.read;
  for k = 1 to k_card do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  let p =
    { off; src = Array.make off.(k_card) 0; lbl = Array.make off.(k_card) 0 }
  in
  let next = Array.sub off 0 k_card in
  let fill q row =
    for k = 0 to k_card - 1 do
      match row.(k) with
      | [] -> ()
      | targets ->
        List.iter
          (fun k' ->
            p.src.(next.(k')) <- k;
            p.lbl.(next.(k')) <- q;
            next.(k') <- next.(k') + 1)
          targets
    done
  in
  fill (-1) pf.Pathfinder.up;
  Array.iteri fill pf.Pathfinder.read;
  p

(* The q read on the transitions into the backward cone of [k]. *)
let cone_reads ~q_card p k =
  let cone = Bitv.builder (Array.length p.off - 1)
  and out = Bitv.builder q_card in
  let rec visit k =
    Bitv.add_in_place k cone;
    for i = p.off.(k) to p.off.(k + 1) - 1 do
      if p.lbl.(i) >= 0 then Bitv.add_in_place p.lbl.(i) out;
      if not (Bitv.builder_mem p.src.(i) cone) then visit p.src.(i)
    done
  in
  visit k;
  Bitv.freeze out

let reads_into m =
  Array.init m.pf.Pathfinder.n_states (cone_reads ~q_card:m.q_card m.preds)

(* Cones only for the pathfinder states some FEx atom names; a state
   whose μ has no FEx atom shares one empty set. *)
let compute_dependencies ~q_card ~mu ~preds pf =
  let none = Bitv.empty q_card in
  let into = Array.make pf.Pathfinder.n_states none in
  let reads k =
    if into.(k) == none then into.(k) <- cone_reads ~q_card preds k;
    into.(k)
  in
  (* Most μ(q) name one sink or none: share its cone, and union only
     what adds bits. *)
  let add acc r =
    match acc with
    | None -> Some r
    | Some a -> if Bitv.subset r a then acc else Some (Bitv.union a r)
  in
  let rec atoms acc = function
    | FEx (k1, k2, _) -> add (add acc (reads k1)) (reads k2)
    | FNot f -> atoms acc f
    | FAnd (f, g) | FOr (f, g) -> atoms (atoms acc f) g
    | FTrue | FFalse | FLab _ | FCountGe _ | FCountZero _ | FCountLt _ -> acc
  in
  Array.map (fun f -> Option.value (atoms None f) ~default:none) mu

(* Tarjan's SCC; result in reverse topological order, so we reverse it to
   get dependencies-first. *)
let compute_sccs deps =
  let n = Array.length deps in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Bitv.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      deps.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order of the graph
     v → deps(v); a component is emitted only after everything it depends
     on, so !components is dependencies-last; reverse it. *)
  List.rev !components

let create ~labels ~mu ~final ~pf =
  let q_card = Array.length mu in
  if pf.Pathfinder.q_card <> q_card then
    ill_formed "pathfinder alphabet |Q|=%d but automaton has %d states"
      pf.Pathfinder.q_card q_card;
  if Bitv.width final <> q_card then
    ill_formed "final-state set has width %d, expected %d"
      (Bitv.width final) q_card;
  Array.iter
    (check_form ~q_card ~k_card:pf.Pathfinder.n_states ~positive:true)
    mu;
  (* The reverse pathfinder index, the same-node dependency graph and
     its SCCs are pure functions of μ and P; every search over [m] reads
     them, so compute them once here. Eagerly, not lazily: every search
     reads all three, so deferring them saves nothing, and [m] stays a
     plain immutable value that any domain can read. *)
  let preds = predecessors pf in
  let deps = compute_dependencies ~q_card ~mu ~preds pf in
  {
    labels;
    q_card;
    mu;
    final;
    pf;
    preds;
    deps;
    components = compute_sccs deps;
  }

let dependencies m = m.deps
let sccs m = m.components

let has_bounded_interleaving m =
  List.for_all
    (function
      | [ q ] -> not (Bitv.mem q m.deps.(q))
      | _ -> false)
    m.components

(* --- intersection --- *)

let rec shift_form ~dk ~dq = function
  | (FTrue | FFalse | FLab _) as f -> f
  | FNot f -> FNot (shift_form ~dk ~dq f)
  | FAnd (f, g) -> FAnd (shift_form ~dk ~dq f, shift_form ~dk ~dq g)
  | FOr (f, g) -> FOr (shift_form ~dk ~dq f, shift_form ~dk ~dq g)
  | FEx (k1, k2, op) -> FEx (k1 + dk, k2 + dk, op)
  | FCountGe (q, n) -> FCountGe (q + dq, n)
  | FCountZero q -> FCountZero (q + dq)
  | FCountLt (q, n) -> FCountLt (q + dq, n)

let disjunction = function
  | [] -> FFalse
  | f :: fs -> List.fold_left (fun a b -> FOr (a, b)) f fs

let intersect m1 m2 =
  let q1 = m1.q_card and q2 = m2.q_card in
  let k1 = m1.pf.Pathfinder.n_states and k2 = m2.pf.Pathfinder.n_states in
  (* New layout: K = [kI0] ++ K1(+1) ++ K2(+1+k1); Q = Q1 ++ Q2 ++ [q∧]. *)
  let q_card = q1 + q2 + 1 in
  let n_states = 1 + k1 + k2 in
  let up = ref [] and read = ref [] in
  let add_pf (pf : Pathfinder.t) ~dk ~dq =
    Array.iteri
      (fun k targets ->
        List.iter (fun k' -> up := (k + dk, k' + dk) :: !up) targets)
      pf.Pathfinder.up;
    Array.iteri
      (fun q per_k ->
        Array.iteri
          (fun k targets ->
            List.iter
              (fun k' -> read := (q + dq, k + dk, k' + dk) :: !read)
              targets)
          per_k)
      pf.Pathfinder.read;
    (* The fresh initial state mirrors the outgoing transitions of this
       component's own initial state. *)
    let ki = pf.Pathfinder.initial in
    List.iter (fun k' -> up := (0, k' + dk) :: !up) pf.Pathfinder.up.(ki);
    Array.iteri
      (fun q per_k ->
        List.iter
          (fun k' -> read := (q + dq, 0, k' + dk) :: !read)
          per_k.(ki))
      pf.Pathfinder.read
  in
  add_pf m1.pf ~dk:1 ~dq:0;
  add_pf m2.pf ~dk:(1 + k1) ~dq:q1;
  let pf =
    Pathfinder.create ~n_states ~initial:0 ~q_card ~up:!up ~read:!read
  in
  let mu = Array.make q_card FFalse in
  Array.iteri (fun q f -> mu.(q) <- shift_form ~dk:1 ~dq:0 f) m1.mu;
  Array.iteri
    (fun q f -> mu.(q1 + q) <- shift_form ~dk:(1 + k1) ~dq:q1 f)
    m2.mu;
  let accept m ~dk ~dq =
    disjunction
      (List.map
         (fun q -> shift_form ~dk ~dq m.mu.(q))
         (Bitv.elements m.final))
  in
  mu.(q1 + q2) <-
    FAnd (accept m1 ~dk:1 ~dq:0, accept m2 ~dk:(1 + k1) ~dq:q1);
  let labels =
    List.sort_uniq Label.compare (m1.labels @ m2.labels)
  in
  create ~labels ~mu ~final:(Bitv.singleton q_card (q1 + q2)) ~pf

let rec pp_form ppf = function
  | FTrue -> Format.pp_print_string ppf "true"
  | FFalse -> Format.pp_print_string ppf "false"
  | FLab l -> Label.pp ppf l
  | FNot f -> Format.fprintf ppf "~(%a)" pp_form f
  | FAnd (f, g) -> Format.fprintf ppf "(%a & %a)" pp_form f pp_form g
  | FOr (f, g) -> Format.fprintf ppf "(%a | %a)" pp_form f pp_form g
  | FEx (k1, k2, Xpds_xpath.Ast.Eq) ->
    Format.fprintf ppf "E(k%d,k%d)=" k1 k2
  | FEx (k1, k2, Xpds_xpath.Ast.Neq) ->
    Format.fprintf ppf "E(k%d,k%d)!=" k1 k2
  | FCountGe (q, n) -> Format.fprintf ppf "#q%d>=%d" q n
  | FCountZero q -> Format.fprintf ppf "#q%d=0" q
  | FCountLt (q, n) -> Format.fprintf ppf "#q%d<%d" q n

let pp ppf m =
  Format.fprintf ppf "@[<v>bip: |Q|=%d |K|=%d final=%a@," m.q_card
    m.pf.Pathfinder.n_states Bitv.pp m.final;
  Array.iteri
    (fun q f -> Format.fprintf ppf "mu(q%d) = %a@," q pp_form f)
    m.mu;
  Pathfinder.pp ppf m.pf;
  Format.fprintf ppf "@]"
