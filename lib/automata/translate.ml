open Xpds_xpath.Ast
module Label = Xpds_datatree.Label

(* One walk over η numbers its subexpressions by hash-consing: a node or
   path is keyed by its constructor and the ids of its children, so two
   subexpressions get the same id iff they are structurally equal, and
   no key is ever hashed or compared but as one int. Node ids are
   handed out in post-order of first occurrence — exactly the order of
   [node_subformulas] — and are the BIP states q_ψ. *)

(* A node subformula with its children as ids; a path is an
   [(int, int) Nfa.step]: sub-paths as path ids, tests as BIP states. *)
type shape =
  | N_true
  | N_false
  | N_lab of Label.t
  | N_not of int
  | N_and of int * int
  | N_or of int * int
  | N_exists of int
  | N_cmp of int * op * int

(* One int per key: a 5-bit tag and two operands below 2^29. *)
let pack tag x y = tag lor (x lsl 5) lor (y lsl 34)

let node_key = function
  | N_true -> pack 0 0 0
  | N_false -> pack 1 0 0
  | N_lab l -> pack 2 (Label.to_int l) 0
  | N_not a -> pack 3 a 0
  | N_and (a, b) -> pack 4 a b
  | N_or (a, b) -> pack 5 a b
  | N_exists p -> pack 6 p 0
  | N_cmp (p, Eq, q) -> pack 7 p q
  | N_cmp (p, Neq, q) -> pack 8 p q

let path_key : (int, int) Nfa.step -> int = function
  | Self -> pack 9 0 0
  | Child -> pack 10 0 0
  | Descendant -> pack 11 0 0
  | Seq (p, q) -> pack 12 p q
  | Union (p, q) -> pack 13 p q
  | Filter (p, q) -> pack 14 p q
  | Guard (q, p) -> pack 15 q p
  | Star p -> pack 16 p 0

(* The shapes of one sort, indexed by id, in a growable array. *)
type 'a ids = { mutable shapes : 'a array; mutable count : int }

(* Keys to ids by open addressing with linear probing, over a power-of-two
   number of slots kept at most half full: [keys.(i)] is a key or -1 (a
   free slot) and [vals.(i)] its id. Node and path keys have disjoint
   tags, so one table numbers both. *)
type walk = {
  mutable keys : int array;
  mutable vals : int array;
  mutable used : int;
  nodes : shape ids;  (** indexed by q *)
  paths : (int, int) Nfa.step ids;
}

let rec slot keys key i =
  let k = keys.(i) in
  if k = key || k < 0 then i
  else slot keys key ((i + 1) land (Array.length keys - 1))

let home keys key =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land (Array.length keys - 1)

let grow w =
  let keys = Array.make (2 * Array.length w.keys) (-1) in
  let vals = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun i key ->
      if key >= 0 then begin
        let j = slot keys key (home keys key) in
        keys.(j) <- key;
        vals.(j) <- w.vals.(i)
      end)
    w.keys;
  w.keys <- keys;
  w.vals <- vals

let intern w ids key shape =
  let i = slot w.keys key (home w.keys key) in
  if w.keys.(i) = key then w.vals.(i)
  else begin
    let id = ids.count in
    if id = Array.length ids.shapes then begin
      let grown = Array.make (max 16 (2 * id)) shape in
      Array.blit ids.shapes 0 grown 0 id;
      ids.shapes <- grown
    end;
    ids.shapes.(id) <- shape;
    ids.count <- id + 1;
    w.keys.(i) <- key;
    w.vals.(i) <- id;
    w.used <- w.used + 1;
    if 2 * w.used > Array.length w.keys then grow w;
    id
  end

let add_node w n = intern w w.nodes (node_key n) n
let add_path w p = intern w w.paths (path_key p) p

let rec node w = function
  | True -> add_node w N_true
  | False -> add_node w N_false
  | Lab l -> add_node w (N_lab l)
  | Not a -> add_node w (N_not (node w a))
  | And (a, b) ->
    let a = node w a in
    add_node w (N_and (a, node w b))
  | Or (a, b) ->
    let a = node w a in
    add_node w (N_or (a, node w b))
  | Exists p -> add_node w (N_exists (path w p))
  | Cmp (p, op, q) ->
    let p = path w p in
    add_node w (N_cmp (p, op, path w q))

and path w = function
  | Axis Self -> add_path w Self
  | Axis Child -> add_path w Child
  | Axis Descendant -> add_path w Descendant
  | Seq (p, q) ->
    let p = path w p in
    add_path w (Seq (p, path w q))
  | Union (p, q) ->
    let p = path w p in
    add_path w (Union (p, path w q))
  | Filter (p, phi) ->
    let p = path w p in
    add_path w (Filter (p, node w phi))
  | Guard (phi, p) ->
    let q = node w phi in
    add_path w (Guard (q, path w p))
  | Star p -> add_path w (Star (path w p))

let compare_read (q1, k1, t1) (q2, k2, t2) =
  let c = Int.compare q1 q2 in
  if c <> 0 then c
  else
    let c = Int.compare k1 k2 in
    if c <> 0 then c else Int.compare t1 t2

let of_node ?(labels = []) eta =
  let w =
    {
      keys = Array.make 32 (-1);
      vals = Array.make 32 0;
      used = 0;
      nodes = { shapes = [||]; count = 0 };
      paths = { shapes = [||]; count = 0 };
    }
  in
  (* BIP states: one per node subformula, plus q_⊤ if η lacks [True]. *)
  let q_eta = node w eta in
  let q_top = add_node w N_true in
  let q_card = w.nodes.count and nodes = w.nodes.shapes in
  (* Pathfinder states: kI = 0, then per tested path — each path of an
     ⟨α⟩ or α~β, in the order of the node subformulas — the reversed
     NFA's states followed by its sink k_α. *)
  let sink = Array.make w.paths.count (-1) in
  let next_k = ref 1 in
  let up = ref [] and read = ref [] in
  let add_tested alpha =
    if sink.(alpha) < 0 then begin
      (* The reversed NFA is read off the trimmed one: its initials are
         [finals], its finals [initials], and each edge s --l--> t runs
         t --l--> s. *)
      let nfa = Nfa.compile (Array.get w.paths.shapes) alpha in
      let base = !next_k in
      let k_alpha = base + nfa.Nfa.n_states in
      next_k := k_alpha + 1;
      sink.(alpha) <- k_alpha;
      (* Entry: from kI, reading q_⊤ (present everywhere), move into any
         initial state of the reversed NFA — and straight to the sink
         when ε ∈ L(α). *)
      Bitv.iter
        (fun i ->
          read := (q_top, 0, base + i) :: !read;
          if Bitv.mem i nfa.Nfa.initials then
            read := (q_top, 0, k_alpha) :: !read)
        nfa.Nfa.finals;
      List.iter
        (fun (t, letter, s) ->
          let gs = base + s and gt = base + t in
          let final = Bitv.mem t nfa.Nfa.initials in
          match letter with
          | Nfa.Test q ->
            read := (q, gs, gt) :: !read;
            if final then read := (q, gs, k_alpha) :: !read
          | Nfa.Down ->
            up := (gs, gt) :: !up;
            if final then up := (gs, k_alpha) :: !up)
        nfa.Nfa.edges
    end
  in
  for q = 0 to q_card - 1 do
    match nodes.(q) with
    | N_exists alpha -> add_tested alpha
    | N_cmp (alpha, _, beta) ->
      add_tested alpha;
      add_tested beta
    | _ -> ()
  done;
  let pf =
    Pathfinder.create ~n_states:!next_k ~initial:0 ~q_card ~up:!up
      ~read:(List.sort_uniq compare_read !read)
  in
  (* μ: the boolean skeleton of each subformula, inlined down to label
     tests and FEx atoms. Children have smaller ids, so each μ(q) shares
     its children's formulas. *)
  let mu = Array.make q_card Bip.FTrue in
  let sigma = ref (Label.of_string "@other" :: labels) in
  for q = 0 to q_card - 1 do
    mu.(q) <-
      (match nodes.(q) with
      | N_true -> Bip.FTrue
      | N_false -> Bip.FFalse
      | N_lab l ->
        sigma := l :: !sigma;
        Bip.FLab l
      | N_not a -> Bip.FNot mu.(a)
      | N_and (a, b) -> Bip.FAnd (mu.(a), mu.(b))
      | N_or (a, b) -> Bip.FOr (mu.(a), mu.(b))
      | N_exists alpha -> Bip.FEx (sink.(alpha), sink.(alpha), Eq)
      | N_cmp (alpha, op, beta) -> Bip.FEx (sink.(alpha), sink.(beta), op))
  done;
  Bip.create
    ~labels:(List.sort_uniq Label.compare !sigma)
    ~mu
    ~final:(Bitv.singleton q_card q_eta)
    ~pf

let of_node_somewhere ?labels eta =
  of_node ?labels (Exists (Filter (Axis Descendant, eta)))
