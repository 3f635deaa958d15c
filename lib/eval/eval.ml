open Xpds_xpath.Ast
module Label = Xpds_datatree.Label

exception Deadline

(* A payload gives every node a set of width ≤ 63·k, stored as the [k]
   words [w.(y·k) .. w.(y·k + k - 1)] of node [y]. Kernels never mutate
   a payload they are given: a result may alias its input (ε) or a
   memoized image. *)
type payload = { k : int; w : int array }

type t = {
  doc : Doc.t;
  node_memo : (node, Bitv.t) Hashtbl.t;
  reach_memo : (path, payload) Hashtbl.t;  (** images of [reach], for ⟨α⟩ *)
  class_memo : (path, payload) Hashtbl.t;  (** images of [classes], for [Cmp] *)
  charged : (path, unit) Hashtbl.t;
      (** paths whose first evaluation has completed (and been charged) *)
  reach : payload Lazy.t;  (** one bit per node *)
  classes : payload Lazy.t;  (** the node's data-class bit *)
  mutable node_evals : int;
  should_stop : unit -> bool;
}

let bpw = Sys.int_size

(* [{y}] for node y, in groups of [Bitv.word_count width] words. *)
let singletons n width bit =
  let k = Bitv.word_count width in
  let w = Array.make (n * k) 0 in
  for y = 0 to n - 1 do
    let b = bit y in
    w.((y * k) + (b / bpw)) <- 1 lsl (b mod bpw)
  done;
  { k; w }

let create ?(should_stop = fun () -> false) doc =
  let n = doc.Doc.n in
  {
    doc;
    node_memo = Hashtbl.create 64;
    reach_memo = Hashtbl.create 64;
    class_memo = Hashtbl.create 16;
    charged = Hashtbl.create 64;
    reach = lazy (singletons n 1 (fun _ -> 0));
    classes =
      lazy (singletons n doc.Doc.n_classes (Array.get doc.Doc.data_class));
    node_evals = 0;
    should_stop;
  }

let doc c = c.doc
let node_evals c = c.node_evals

(* Polled on the first visit of every sub-expression, mirroring the
   solver's cooperative-deadline contract: memo entries are only written
   after a full computation, so a Deadline leaves the evaluator
   reusable. *)
let charge c =
  if c.should_stop () then raise Deadline;
  c.node_evals <- c.node_evals + c.doc.Doc.n

(* --- image kernels: [r(x) = ⋃ {v(y) | y ∈ [[α]](x)}] per axis --- *)

(* ↓: every node's set flows to its parent. *)
let child d v =
  let k = v.k and src = v.w in
  let r = Array.make (Array.length src) 0 in
  let parent = d.Doc.parent in
  for y = 1 to d.Doc.n - 1 do
    let p = parent.(y) * k and s = y * k in
    for j = 0 to k - 1 do
      r.(p + j) <- r.(p + j) lor src.(s + j)
    done
  done;
  { k; w = r }

(* ↓∗ (reflexive): children have higher pre-order ids than their
   parent, so a descending sweep finishes each subtree's union before
   folding it into the parent. *)
let descendant d v =
  let k = v.k in
  let r = Array.copy v.w in
  let parent = d.Doc.parent in
  for y = d.Doc.n - 1 downto 1 do
    let p = parent.(y) * k and s = y * k in
    for j = 0 to k - 1 do
      r.(p + j) <- r.(p + j) lor r.(s + j)
    done
  done;
  { k; w = r }

let union a b = { k = a.k; w = Array.map2 ( lor ) a.w b.w }

(* [v] restricted to the nodes of [set]. *)
let mask set v =
  let k = v.k and src = v.w in
  let r = Array.make (Array.length src) 0 in
  Bitv.iter
    (fun y ->
      let s = y * k in
      for j = 0 to k - 1 do
        r.(s + j) <- src.(s + j)
      done)
    set;
  { k; w = r }

(* α∗ over the identity image [rows] of α (row x = [[α]](x)):
   [r(x) = v(x) ∪ ⋃ {r(y) | y ∈ rows(x), y > x}] for descending x.
   Every axis descends, so rows(x) lies in the subtree interval
   [x .. x + size(x) - 1] and each r(y) with y > x is already final —
   one pass, no fixpoint iteration. *)
let star d rows v =
  let k = v.k and kn = rows.k in
  let r = Array.copy v.w in
  let size = d.Doc.size in
  for x = d.Doc.n - 1 downto 0 do
    let lo = x / bpw and hi = (x + size.(x) - 1) / bpw in
    let dst = x * k and first = lo * bpw in
    Bitv.iter_words
      (fun i ->
        let y = first + i in
        if y > x then begin
          let s = y * k in
          for j = 0 to k - 1 do
            r.(dst + j) <- r.(dst + j) lor r.(s + j)
          done
        end)
      rows.w ~pos:((x * kn) + lo) ~len:(hi - lo + 1)
  done;
  { k; w = r }

let identity d = singletons d.Doc.n d.Doc.n Fun.id

(* --- word-group predicates over payloads --- *)

let rec nonempty w base k j =
  j < k && (w.(base + j) <> 0 || nonempty w base k (j + 1))

let rec meet a b base k j =
  j < k && (a.(base + j) land b.(base + j) <> 0 || meet a b base k (j + 1))

(* The union of the two groups has at least two bits; [seen]: a bit
   was found in an earlier word. *)
let rec two_bits a b base k j seen =
  j < k
  &&
  let u = a.(base + j) lor b.(base + j) in
  if u = 0 then two_bits a b base k (j + 1) seen
  else seen || u land (u - 1) <> 0 || two_bits a b base k (j + 1) true

let rec eval_node c phi : Bitv.t =
  match Hashtbl.find_opt c.node_memo phi with
  | Some r -> r
  | None ->
    charge c;
    let n = c.doc.Doc.n in
    let r =
      match phi with
      | True -> Bitv.full n
      | False -> Bitv.empty n
      | Lab l ->
        let li = Label.to_int l in
        let b = Bitv.builder n in
        let label = c.doc.Doc.label in
        for x = 0 to n - 1 do
          if label.(x) = li then Bitv.add_in_place x b
        done;
        Bitv.freeze b
      | Not a -> Bitv.diff (Bitv.full n) (eval_node c a)
      | And (a, b) -> Bitv.inter (eval_node c a) (eval_node c b)
      | Or (a, b) -> Bitv.union (eval_node c a) (eval_node c b)
      | Exists p ->
        let img = image c c.reach_memo c.reach p in
        let b = Bitv.builder n in
        for x = 0 to n - 1 do
          if img.w.(x) <> 0 then Bitv.add_in_place x b
        done;
        Bitv.freeze b
      | Cmp (p, op, q) ->
        let cp = image c c.class_memo c.classes p in
        let cq = image c c.class_memo c.classes q in
        let k = cp.k and a = cp.w and b' = cq.w in
        let b = Bitv.builder n in
        (match op with
        | Eq ->
          for x = 0 to n - 1 do
            if meet a b' (x * k) k 0 then Bitv.add_in_place x b
          done
        | Neq ->
          (* ∃ d ∈ cp, d' ∈ cq with d ≠ d': both nonempty and not both
             the same singleton (Semantics, verbatim, over classes). *)
          for x = 0 to n - 1 do
            let base = x * k in
            if
              nonempty a base k 0 && nonempty b' base k 0
              && two_bits a b' base k 0 false
            then Bitv.add_in_place x b
          done);
        Bitv.freeze b
    in
    Hashtbl.add c.node_memo phi r;
    r

(* The image of [v] under [[p]]. A path is charged on its first
   evaluation, whatever the payload; later payloads reuse the charge. *)
and apply c p v : payload =
  let first = not (Hashtbl.mem c.charged p) in
  if first then charge c;
  let d = c.doc in
  let r =
    match p with
    | Axis Self -> v
    | Axis Child -> child d v
    | Axis Descendant -> descendant d v
    | Seq (a, b) -> apply c a (apply c b v)
    | Union (a, b) -> union (apply c a v) (apply c b v)
    | Filter (a, phi) -> apply c a (mask (eval_node c phi) v)
    | Guard (phi, a) -> mask (eval_node c phi) (apply c a v)
    | Star a -> star d (apply c a (identity d)) v
  in
  if first then Hashtbl.add c.charged p ();
  r

and image c memo base p =
  match Hashtbl.find_opt memo p with
  | Some r -> r
  | None ->
    let r = apply c p (Lazy.force base) in
    Hashtbl.add memo p r;
    r

let nodes c phi = eval_node c phi

let path_rows c p =
  let n = c.doc.Doc.n in
  let r = apply c p (identity c.doc) in
  Array.init n (fun x -> Bitv.of_words n r.w (x * r.k))

let holds_at c phi x = Bitv.mem x (eval_node c phi)
let holds_at_root c phi = holds_at c phi 0
let check_somewhere c phi = not (Bitv.is_empty (eval_node c phi))

let selected_positions c phi =
  List.rev
    (Bitv.fold
       (fun x acc -> Doc.position c.doc x :: acc)
       (eval_node c phi) [])

let check tree phi = holds_at_root (create (Doc.of_tree tree)) phi
