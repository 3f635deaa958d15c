module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder
module Label = Xpds_datatree.Label
open Xpds_xpath.Ast

type result = { state : Ext_state.t; class_values : int array }

module BvTbl = Hashtbl.Make (Bitv)

(* Memo key for the case-1 lifted matrices: (root label, hash-consed
   child tag). Tags are unique per search and assigned at admission, so
   every child of every combo after the leaf round carries one. *)
module LiftTbl = Hashtbl.Make (struct
  type t = Bitv.t * int

  let equal (c1, t1) (c2, t2) = t1 = t2 && Bitv.equal c1 c2
  let hash (c, t) = (Bitv.hash c * 0x01000193) lxor t land max_int
end)

(* Key for the per-combo atom cache: (root label, children tags). *)
module AliftTbl = Hashtbl.Make (struct
  type t = Bitv.t * int array

  let equal (c1, a1) (c2, a2) = a1 = a2 && Bitv.equal c1 c2
  let hash (c, a) =
    (Bitv.hash c * 0x01000193) lxor Hashtbl.hash a land max_int
end)

type ctx = {
  m : Bip.t;
  rev_read : (int * int) list array;
      (** per target k: (q, source) non-moving edges into k *)
  rev_up : int list array;  (** per target k'': sources k' with up-edges *)
  read_mask : Bitv.t;
      (** BIP states labelling at least one read edge. Closures, backward
          sets and lifted matrices consult a candidate root label only
          through these states, so candidates agreeing on the projection
          share every per-label cache entry *)
  pair_mask : Bitv.t option;
      (** when set: the K x K pairs the automaton can ever consult; the
          stored atom matrices are projected onto it, collapsing
          extended states that differ only in unobservable pairs *)
  memo : Pathfinder.memo;
      (** per-search closure/step-up caches (not thread-safe: a ctx must
          stay on the domain that created it) *)
  u_tbl : Bitv.t array BvTbl.t;
      (** per root label c0: U(k') = cl(step_up {k'}), the case-1 lift *)
  v_tbl : Bitv.t option array BvTbl.t;
      (** per root label c0: per-k backward sets, filled on demand *)
  lift_tbl : (Bitv.t * Bitv.t) LiftTbl.t;
      (** per (c0, child tag): the child's lifted (eq, neq) contribution
          Uᵀ·M·U as flat K×K matrices — a basis state is combined into
          thousands of combos under few distinct root labels, so the
          matrix product amortizes to a table lookup *)
  alift_tbl : (int * bool) list ref AliftTbl.t;
      (** per (c0, packed children tags): case-1 atom answers, encoded
          atom → truth. The lifted part of an atom is independent of the
          merging, so it is shared across every merging of a combo *)
  cand : Bitv.builder;
      (** {!decide_c0}'s candidate root label, grown and shrunk in place *)
  proj : Bitv.builder;  (** [cand ∩ read_mask], maintained alongside *)
  counting : bool;  (** μ has downward-counting atoms *)
}

let has_counting (m : Bip.t) =
  Array.exists
    (fun f ->
      Bip.fold_form
        (fun acc atom ->
          acc
          ||
          match atom with
          | Bip.FCountGe _ | Bip.FCountZero _ | Bip.FCountLt _ -> true
          | _ -> false)
        false f)
    m.Bip.mu

(* [edge] onto the list of each of [targets], without a closure. *)
let rec add_reversed rev edge = function
  | [] -> ()
  | k :: targets ->
    rev.(k) <- edge :: rev.(k);
    add_reversed rev edge targets

let make_ctx ?(project_pairs = false) (m : Bip.t) =
  let pf = m.Bip.pf in
  let k_card = pf.Pathfinder.n_states in
  let rev_read = Array.make k_card [] in
  let read_mask = Bitv.builder pf.Pathfinder.q_card in
  let read = pf.Pathfinder.read in
  for q = 0 to Array.length read - 1 do
    let per_k = read.(q) in
    for k = 0 to Array.length per_k - 1 do
      if per_k.(k) <> [] then begin
        Bitv.add_in_place q read_mask;
        add_reversed rev_read (q, k) per_k.(k)
      end
    done
  done;
  let read_mask = Bitv.freeze read_mask in
  let rev_up = Array.make k_card [] in
  Array.iteri (fun k targets -> add_reversed rev_up k targets) pf.Pathfinder.up;
  let k_card_sq = k_card * k_card in
  let pair_mask =
    (* The mask closure is worst-case O(K^4); beyond ~128 pathfinder
       states its cost outweighs the state-space savings. *)
    if (not project_pairs) || k_card > 128 then None
    else begin
      (* Backward set under the *full* label (superset of any C0):
         V_full(k) = sources whose one up-step can reach k. One [seen]
         builder and one stack serve every k: a state is pushed at most
         once per walk. *)
      let seen = Bitv.builder k_card and stack = Array.make k_card 0 in
      let v_full =
        Array.init k_card (fun k ->
            let v = Bitv.builder k_card in
            Bitv.builder_reset seen;
            Bitv.add_in_place k seen;
            stack.(0) <- k;
            let top = ref 1 in
            while !top > 0 do
              decr top;
              let cur = stack.(!top) in
              List.iter (fun k' -> Bitv.add_in_place k' v) rev_up.(cur);
              List.iter
                (fun ((_ : int), src) ->
                  if not (Bitv.builder_mem src seen) then begin
                    Bitv.add_in_place src seen;
                    stack.(!top) <- src;
                    incr top
                  end)
                rev_read.(cur)
            done;
            Bitv.freeze v)
      in
      (* Relevant pairs: the μ-atoms, the diagonal (used by the
         structural invariants), closed under simultaneous backward
         steps (the lifted case-1 queries). The mask stays symmetric,
         so each flat pair index k1·K+k2 enters the queue at most once. *)
      let mask = Bitv.builder k_card_sq in
      let queue = Array.make k_card_sq 0 and tail = ref 0 in
      let push p =
        Bitv.add_in_place p mask;
        queue.(!tail) <- p;
        incr tail
      in
      let add k1 k2 =
        let p = (k1 * k_card) + k2 in
        if not (Bitv.builder_mem p mask) then begin
          push p;
          if k1 <> k2 then push ((k2 * k_card) + k1)
        end
      in
      List.iter (fun (k1, k2, _) -> add k1 k2) (Bip.ex_atoms m);
      for k = 0 to k_card - 1 do
        add k k
      done;
      let head = ref 0 in
      while !head < !tail do
        let p = queue.(!head) in
        incr head;
        let v2 = v_full.(p mod k_card) in
        Bitv.iter
          (fun k'1 -> Bitv.iter (fun k'2 -> add k'1 k'2) v2)
          v_full.(p / k_card)
      done;
      Some (Bitv.freeze mask)
    end
  in
  {
    m;
    rev_read;
    rev_up;
    read_mask;
    pair_mask;
    memo = Pathfinder.memo pf;
    u_tbl = BvTbl.create 16;
    v_tbl = BvTbl.create 16;
    lift_tbl = LiftTbl.create 16;
    alift_tbl = AliftTbl.create 16;
    cand = Bitv.builder m.Bip.q_card;
    proj = Bitv.builder m.Bip.q_card;
    counting = has_counting m;
  }

let bip_of ctx = ctx.m
let memo_of ctx = ctx.memo

let t0_default (m : Bip.t) =
  let k = m.pf.Pathfinder.n_states in
  (2 * k * k) + 2

let visible_values (m : Bip.t) children =
  List.concat
    (List.mapi
       (fun i (c : Ext_state.t) ->
         List.concat
           (List.mapi
              (fun v desc ->
                if Bitv.is_empty (Pathfinder.step_up m.pf desc) then []
                else [ (i, v) ])
              (Array.to_list c.values)))
       (Array.to_list children))

(* The case-1 lift U(k') = cl(step_up {k'}, c0): one closure per
   pathfinder state per distinct root label — cached on the ctx because
   every assembled state under the same c0 reuses the whole array. *)
let u_of ctx ~c0 =
  match BvTbl.find_opt ctx.u_tbl c0 with
  | Some u -> u
  | None ->
    let pf = ctx.m.Bip.pf in
    let u =
      Array.init pf.Pathfinder.n_states (fun k' ->
          Pathfinder.closure_m ctx.memo ~label:c0
            pf.Pathfinder.up_bits.(k'))
    in
    BvTbl.add ctx.u_tbl c0 u;
    u

(* The per-class base at the root: step-ups of the members' described
   values (all memoized), plus k_I for the root class. *)
let class_base ctx ~(children : Ext_state.t array) (kl : Merging.klass) =
  let pf = ctx.m.Bip.pf in
  let k_card = pf.Pathfinder.n_states in
  let b = Bitv.builder k_card in
  if kl.Merging.has_root then Bitv.add_in_place pf.Pathfinder.initial b;
  List.iter
    (fun (i, v) ->
      ignore
        (Bitv.union_into
           (Pathfinder.step_up_m ctx.memo
              children.(i).Ext_state.values.(v))
           b))
    kl.Merging.members;
  Bitv.freeze b

let many_base ctx ~(children : Ext_state.t array) =
  let pf = ctx.m.Bip.pf in
  let b = Bitv.builder pf.Pathfinder.n_states in
  Array.iter
    (fun (c : Ext_state.t) ->
      ignore (Bitv.union_into (Pathfinder.step_up_m ctx.memo c.many) b))
    children;
  Bitv.freeze b

(* What [combine] reads of its children besides the merging's class
   bases. The case-1 lift Uᵀ·M·U is linear in M and a light's lifted
   atom is an ∃ over children, so the matrices enter only through their
   union; the children's labels only through the counting atoms. *)
type projection = {
  pj_many : Bitv.t;  (** the many base: ∪ step_up(c.many) *)
  pj_eq : Bitv.t;  (** ∪ c.eq *)
  pj_neq : Bitv.t;  (** ∪ c.neq *)
  pj_states : Bitv.t array;
      (** the children's [states], sorted; empty without counting atoms *)
}

let projection ctx (children : Ext_state.t array) =
  let union f =
    let b = Bitv.builder_of (f children.(0)) in
    for i = 1 to Array.length children - 1 do
      ignore (Bitv.union_into (f children.(i)) b)
    done;
    Bitv.freeze b
  in
  let pj_states =
    if ctx.counting then begin
      let a = Array.map (fun (c : Ext_state.t) -> c.states) children in
      Array.sort Bitv.compare a;
      a
    end
    else [||]
  in
  {
    pj_many = many_base ctx ~children;
    pj_eq = union (fun c -> c.Ext_state.eq);
    pj_neq = union (fun c -> c.Ext_state.neq);
    pj_states;
  }

let projection_equal a b =
  Bitv.equal a.pj_many b.pj_many
  && Bitv.equal a.pj_eq b.pj_eq
  && Bitv.equal a.pj_neq b.pj_neq
  && Array.length a.pj_states = Array.length b.pj_states
  && Array.for_all2 Bitv.equal a.pj_states b.pj_states

let projection_hash p =
  let mix h b = (h * 0x01000193) lxor Bitv.hash b in
  Array.fold_left mix
    (mix (mix (Bitv.hash p.pj_many) p.pj_eq) p.pj_neq)
    p.pj_states
  land max_int

(* Per-(partial C0) evaluation context: reach per class, the many set,
   and the full ∃(k1,k2)~ matrices, stored as one bit-row per k1. The
   matrices combine the paper's cases: values shared through a merging
   class (cases 2-4), pairs lifted from a child's own valuation through
   step-up + closure (case 1), and the many-source rule (case 4'). The
   lifted part is a boolean matrix product  Uᵀ · eq_i · U  computed
   row-wise on bit vectors, keeping a transition polynomial with a small
   constant. *)
type eval = {
  r : Bitv.t array;  (** per merging class: reach at the root *)
  many0 : Bitv.t;  (** M: states inheriting >= 2 values *)
  eq : Bitv.t;  (** flat K×K matrix: bit k1·K+k2 iff ∃(k1,k2)= *)
  neq : Bitv.t;
}

(* Case 1: one child's own matrices lifted through U(k') =
   cl(step_up {k'}) — the boolean product Uᵀ·M·U as flat matrices.
   Memoized per (c0, child tag): a basis state re-enters combos far
   more often than new (c0, child) pairs appear. *)
let lift_of ctx ~c0 ~u ~k_card (c : Ext_state.t) =
  let compute () =
    let lift_matrix matrix =
      let rows = Array.init k_card (fun _ -> Bitv.builder k_card) in
      for k'1 = 0 to k_card - 1 do
        let child_row = Bitv.row matrix ~row_width:k_card k'1 in
        if not (Bitv.is_empty child_row) then begin
          (* m1 = ∪ { u.(k'2) | child k'1 ~ k'2 } *)
          let b = Bitv.builder k_card in
          Bitv.iter
            (fun k'2 -> ignore (Bitv.union_into u.(k'2) b))
            child_row;
          let m1 = Bitv.freeze b in
          if not (Bitv.is_empty m1) then
            Bitv.iter
              (fun k1 -> ignore (Bitv.union_into m1 rows.(k1)))
              u.(k'1)
        end
      done;
      Bitv.of_rows ~row_width:k_card (Array.map Bitv.freeze rows)
    in
    (lift_matrix c.Ext_state.eq, lift_matrix c.Ext_state.neq)
  in
  let tag = Ext_state.tag c in
  if tag < 0 then compute ()
  else begin
    let key = (c0, tag) in
    match LiftTbl.find_opt ctx.lift_tbl key with
    | Some l -> l
    | None ->
      let l = compute () in
      LiftTbl.add ctx.lift_tbl key l;
      l
  end

(* [r] and [many0] are the class reaches and the many set under [c0]
   (the closures of the class bases and of the many base). *)
let build_eval ctx ~c0 ~(children : Ext_state.t array) ~r ~many0 =
  let pf = ctx.m.Bip.pf in
  let k_card = pf.Pathfinder.n_states in
  let nonzero =
    let b = Bitv.builder_of many0 in
    Array.iter (fun re -> ignore (Bitv.union_into re b)) r;
    Bitv.freeze b
  in
  let eq_b = Bitv.builder (k_card * k_card) in
  let neq_b = Bitv.builder (k_card * k_card) in
  (* Shared class values: all pairs within one class are equal; pairs
     from two distinct classes are unequal. Rows are OR-ed straight
     into the flat matrices. *)
  let n_classes = Array.length r in
  let others_b = Bitv.builder k_card in
  for e = 0 to n_classes - 1 do
    Bitv.builder_reset others_b;
    for e2 = 0 to n_classes - 1 do
      if e2 <> e then ignore (Bitv.union_into r.(e2) others_b)
    done;
    let others = Bitv.freeze others_b in
    Bitv.union_rows_into r.(e) ~rows:r.(e) ~row_width:k_card eq_b;
    Bitv.union_rows_into others ~rows:r.(e) ~row_width:k_card neq_b
  done;
  (* Many-source inequality: a many state differs from anything
     retrieving a value. *)
  Bitv.union_rows_into nonzero ~rows:many0 ~row_width:k_card neq_b;
  Bitv.union_rows_into many0 ~rows:nonzero ~row_width:k_card neq_b;
  (* Case 1, per child, through the memo. *)
  let u = u_of ctx ~c0 in
  Array.iter
    (fun (c : Ext_state.t) ->
      let leq, lneq = lift_of ctx ~c0 ~u ~k_card c in
      ignore (Bitv.union_into leq eq_b);
      ignore (Bitv.union_into lneq neq_b))
    children;
  { r; many0; eq = Bitv.freeze eq_b; neq = Bitv.freeze neq_b }

(* A light evaluation context for deciding C(v0): only the class reach
   sets and the many set are materialized; case-1 lifted pairs are
   answered per query through the backward sets
   V(k) = { k' | one up-step from k' can reach k under C0 }, memoized
   per (c0, k) on the ctx. This keeps μ-evaluation cheap even for large
   pathfinders — the full K x K matrices are only built once per
   assembled state. *)
type light = {
  lr : Bitv.t array;
  lmany0 : Bitv.t;
  lc0 : Bitv.t;
  lv : Bitv.t option array;
      (** the ctx's per-(c0,k) backward-set cache, fetched once *)
  mutable latoms : (int * bool) list;
      (** per-atom memo: encoded (k1,k2,op) → truth; atoms recur across
          the μ of different BIP states under one candidate c0 — a handful
          per light, so an assoc list beats a hash table *)
  lalift : (int * bool) list ref;
      (** case-1 (lifted) atom answers, shared across every merging of
          the (c0, children) pair through {!ctx.alift_tbl} *)
}

(* Small-int assoc scan — the caches above hold < a dozen entries. *)
let rec assoc_find code = function
  | [] -> None
  | (c, (b : bool)) :: rest ->
    if c = code then Some b else assoc_find code rest

(* The class reaches and the many set under the (projected) root label
   [c0]: the closures of the class bases and of the many base. *)
let reaches ctx ~c0 ~bases ~manyb =
  let cl x = Pathfinder.closure_m ctx.memo ~label:c0 x in
  (Array.map cl bases, cl manyb)

let build_light ctx ~c0 ~ckey ~bases ~manyb =
  let k_card = ctx.m.Bip.pf.Pathfinder.n_states in
  let lv =
    match BvTbl.find_opt ctx.v_tbl c0 with
    | Some arr -> arr
    | None ->
      let arr = Array.make k_card None in
      BvTbl.add ctx.v_tbl c0 arr;
      arr
  in
  let lalift =
    match ckey with
    | None -> ref []  (* untagged children: no sharing possible *)
    | Some ck -> (
      let key = (c0, ck) in
      match AliftTbl.find_opt ctx.alift_tbl key with
      | Some r -> r
      | None ->
        let r = ref [] in
        AliftTbl.add ctx.alift_tbl key r;
        r)
  in
  let lr, lmany0 = reaches ctx ~c0 ~bases ~manyb in
  { lr; lmany0; lc0 = c0; lv; latoms = []; lalift }

let v_of ctx light k =
  let k_card = ctx.m.Bip.pf.Xpds_automata.Pathfinder.n_states in
  let cache = light.lv in
  match cache.(k) with
  | Some v -> v
  | None ->
    (* Backward non-moving closure of {k} under the current root label. *)
    let b = ref (Bitv.singleton k_card k) in
    let stack = ref [ k ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | cur :: rest ->
        stack := rest;
        List.iter
          (fun (q, src) ->
            if Bitv.mem q light.lc0 && not (Bitv.mem src !b) then begin
              b := Bitv.add src !b;
              stack := src :: !stack
            end)
          ctx.rev_read.(cur)
    done;
    let v =
      Bitv.fold
        (fun k'' acc ->
          List.fold_left (fun acc k' -> Bitv.add k' acc) acc ctx.rev_up.(k''))
        !b (Bitv.empty k_card)
    in
    cache.(k) <- Some v;
    v

let light_nonzero light k =
  Bitv.mem k light.lmany0 || Array.exists (fun r -> Bitv.mem k r) light.lr

let light_atom_raw ctx light (children : Ext_state.t array) ~code k1 k2
    (op : Xpds_xpath.Ast.op) =
  let k_card = ctx.m.Bip.pf.Pathfinder.n_states in
  let lifted matrix_of =
    match assoc_find code !(light.lalift) with
    | Some b -> b
    | None ->
      let v1 = v_of ctx light k1 and v2 = v_of ctx light k2 in
      let b =
        (not (Bitv.is_empty v1))
        && (not (Bitv.is_empty v2))
        && Array.exists
             (fun (c : Ext_state.t) ->
               let m = matrix_of c in
               Bitv.exists
                 (fun k'1 ->
                   not (Bitv.row_disjoint m ~row_width:k_card k'1 v2))
                 v1)
             children
      in
      light.lalift := (code, b) :: !(light.lalift);
      b
  in
  match op with
  | Eq ->
    Array.exists (fun r -> Bitv.mem k1 r && Bitv.mem k2 r) light.lr
    || lifted (fun (c : Ext_state.t) -> c.Ext_state.eq)
  | Neq ->
    let n = Array.length light.lr in
    let distinct_classes =
      let found = ref false in
      for e1 = 0 to n - 1 do
        if (not !found) && Bitv.mem k1 light.lr.(e1) then
          for e2 = 0 to n - 1 do
            if (not !found) && e2 <> e1 && Bitv.mem k2 light.lr.(e2) then
              found := true
          done
      done;
      !found
    in
    distinct_classes
    || (Bitv.mem k1 light.lmany0 && light_nonzero light k2)
    || (Bitv.mem k2 light.lmany0 && light_nonzero light k1)
    || lifted (fun (c : Ext_state.t) -> c.Ext_state.neq)

let light_atom ctx light children k1 k2 (op : Xpds_xpath.Ast.op) =
  let k_card = ctx.m.Bip.pf.Pathfinder.n_states in
  let code =
    (((k1 * k_card) + k2) * 2) + (match op with Eq -> 0 | Neq -> 1)
  in
  match assoc_find code light.latoms with
  | Some b -> b
  | None ->
    let b = light_atom_raw ctx light children ~code k1 k2 op in
    light.latoms <- (code, b) :: light.latoms;
    b

let count_states (children : Ext_state.t array) q =
  Array.fold_left
    (fun acc (c : Ext_state.t) ->
      if Bitv.mem q c.states then acc + 1 else acc)
    0 children

let rec eval_form_light ctx (children : Ext_state.t array) ~label ~light =
  function
  | Bip.FTrue -> true
  | Bip.FFalse -> false
  | Bip.FLab a -> Label.equal a label
  | Bip.FNot f -> not (eval_form_light ctx children ~label ~light f)
  | Bip.FAnd (f, g) ->
    eval_form_light ctx children ~label ~light f
    && eval_form_light ctx children ~label ~light g
  | Bip.FOr (f, g) ->
    eval_form_light ctx children ~label ~light f
    || eval_form_light ctx children ~label ~light g
  | Bip.FEx (k1, k2, op) ->
    light_atom ctx (Lazy.force light) children k1 k2 op
  | Bip.FCountGe (q, n) -> count_states children q >= n
  | Bip.FCountZero q ->
    Array.for_all (fun (c : Ext_state.t) -> not (Bitv.mem q c.states))
      children
  | Bip.FCountLt (q, n) -> count_states children q < n

(* Decide C(v0) component by component; returns every consistent root
   label with its read projection and that projection's light (a
   singleton for stratified automata). The components are walked depth
   first over one mutable candidate: a trivial component adds its state
   when μ holds under the candidate so far; a cyclic one tries every
   labelling of its states (with each state, then without, in component
   order) and keeps those where μ agrees with the labelling under the
   completed candidate. Consistent labels come out in the order of a
   component-by-component breadth-first search: both list the leaves of
   the same choice tree from left to right.

   μ sees the candidate only through the light of its read projection
   (every answer a light gives depends on the label only through enabled
   read edges), so a light is shared along the walk and a new one is
   made — lazily, forced only when a data atom is reached — only when an
   added state labels a read edge. *)
let decide_c0 ctx ~label ~children ~ckey ~bases ~manyb =
  let m = ctx.m in
  let cand = ctx.cand and proj = ctx.proj in
  Bitv.builder_reset cand;
  Bitv.builder_reset proj;
  let light_of pc0 = lazy (build_light ctx ~c0:pc0 ~ckey ~bases ~manyb) in
  let holds light q =
    eval_form_light ctx children ~label ~light m.Bip.mu.(q)
  in
  (* [with_state q pc0 light k] runs [k] with [q] added to the candidate
     and the projection/light that go with it, then takes [q] out. *)
  let with_state q pc0 light k =
    Bitv.add_in_place q cand;
    if Bitv.mem q ctx.read_mask then begin
      Bitv.add_in_place q proj;
      let pc0 = Bitv.freeze proj in
      k pc0 (light_of pc0);
      Bitv.remove_in_place q proj
    end
    else k pc0 light;
    Bitv.remove_in_place q cand
  in
  let out = ref [] in
  let rec walk pc0 light = function
    | [] -> out := (Bitv.freeze cand, pc0, light) :: !out
    | [ q ] :: rest when not (Bitv.mem q ctx.m.Bip.deps.(q)) ->
      if holds light q then
        with_state q pc0 light (fun pc0 light -> walk pc0 light rest)
      else walk pc0 light rest
    | comp :: rest ->
      let rec assign pc0 light = function
        | [] ->
          if
            List.for_all
              (fun q -> holds light q = Bitv.builder_mem q cand)
              comp
          then walk pc0 light rest
        | q :: qs ->
          with_state q pc0 light (fun pc0 light -> assign pc0 light qs);
          assign pc0 light qs
      in
      assign pc0 light comp
  in
  let pc0 = Bitv.freeze proj in
  walk pc0 (light_of pc0) ctx.m.Bip.components;
  List.rev !out

(* Assemble the extended state for a fully decided root label. *)
let assemble ?t0 ?dup_cap ctx ~(children : Ext_state.t array) ~bases
    ~manyb ~c0 ~pc0 ~light =
  let m = ctx.m in
  let pf = m.Bip.pf in
  let k_card = pf.Pathfinder.n_states in
  let t0 = match t0 with Some t -> t | None -> t0_default m in
  (* The matrices only see the label through enabled read edges, so
     they are built under the read projection [pc0], which maximises
     sharing of the per-label caches. The full c0 still becomes the
     state's labelling below. The reaches under [pc0] are those of its
     light when deciding C(v0) already built it. *)
  let r, many0 =
    if Lazy.is_val light then
      let l = Lazy.force light in
      (l.lr, l.lmany0)
    else reaches ctx ~c0:pc0 ~bases ~manyb
  in
  let ev = build_eval ctx ~c0:pc0 ~children ~r ~many0 in
  let n_classes = Array.length bases in
  (* Multiplicities: one pass over the set bits of the class reaches —
     a k seen twice (or already in M) is many, seen once is unique. *)
  let unique = Array.make k_card (-1) in
  let many_b = Bitv.builder_of ev.many0 in
  Array.iteri
    (fun e re ->
      Bitv.iter
        (fun k ->
          if unique.(k) < 0 && not (Bitv.builder_mem k many_b) then
            unique.(k) <- e
          else begin
            Bitv.add_in_place k many_b;
            unique.(k) <- -1
          end)
        re)
    ev.r;
  let many = Bitv.freeze many_b in
  (* Atom matrices, projected onto the observable pairs when the ctx
     asks for it. *)
  let project m =
    match ctx.pair_mask with None -> m | Some mask -> Bitv.inter m mask
  in
  let eq = project ev.eq in
  let neq = project ev.neq in
  (* Described values: every class with a nonempty reach, root first;
     never drop the root class or a unique target when capping at t0. *)
  let keep =
    List.filter (fun e -> not (Bitv.is_empty ev.r.(e)))
      (List.init n_classes Fun.id)
  in
  let target = Array.make n_classes false in
  Array.iter (fun u -> if u >= 0 then target.(u) <- true) unique;
  let mandatory e = e = 0 || target.(e) in
  (* Values with identical descriptions are interchangeable except for
     their pairwise distinctness; keep at most [dup_cap] copies of each
     description among the optional ones (a practical knob — the paper
     keeps everything up to t0). *)
  let keep =
    match dup_cap with
    | None -> keep
    | Some cap ->
      (* [seen]: the optional classes met so far, kept or not *)
      let rec filter seen = function
        | [] -> []
        | e :: rest when mandatory e -> e :: filter seen rest
        | e :: rest ->
          let n =
            List.fold_left
              (fun n e' -> if Bitv.equal ev.r.(e') ev.r.(e) then n + 1 else n)
              0 seen
          in
          if n < cap then e :: filter (e :: seen) rest
          else filter (e :: seen) rest
      in
      filter [] keep
  in
  let keep =
    if List.length keep <= t0 then keep
    else begin
      let mand, opt = List.partition mandatory keep in
      let budget = max 0 (t0 - List.length mand) in
      let opt_sorted =
        List.sort
          (fun e1 e2 ->
            Int.compare (Bitv.cardinal ev.r.(e2)) (Bitv.cardinal ev.r.(e1)))
          opt
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      List.sort Int.compare (mand @ take budget opt_sorted)
    end
  in
  (* Dropped classes: their unique pointers cannot exist (mandatory), but
     their ks keep multiplicity; dropping only hides the description. *)
  let kept_index = Array.make n_classes (-1) in
  List.iteri (fun pos e -> kept_index.(e) <- pos) keep;
  let values = Array.of_list (List.map (fun e -> ev.r.(e)) keep) in
  let unique_kept =
    Array.map (fun u -> if u >= 0 then kept_index.(u) else -1) unique
  in
  let state =
    Ext_state.make_unchecked ~states:c0 ~eq ~neq ~values
      ~unique:unique_kept ~many
  in
  (* Map each class to its index in the canonical (sorted) state: find the
     position of its description. Equal descriptions are interchangeable,
     so matching by multiset is sound; assign greedily. *)
  let sorted = state.Ext_state.values in
  let used = Array.make (Array.length sorted) false in
  let rec position desc j =
    if j >= Array.length sorted then -1
    else if (not used.(j)) && Bitv.equal sorted.(j) desc then begin
      used.(j) <- true;
      j
    end
    else position desc (j + 1)
  in
  let class_values = Array.make n_classes (-1) in
  List.iteri (fun pos e -> class_values.(e) <- position values.(pos) 0) keep;
  { state; class_values }

let combine ?t0 ?dup_cap ?bases ctx label children (classes : Merging.t) =
  (* Class bases and the many base do not depend on the root label
     candidate: compute them once and share across the whole c0
     enumeration and the final assembly. The fixpoint already unions
     exactly these sets for its canonical merging key and passes them
     in; external callers fall back to computing them here. *)
  let bases =
    match bases with
    | Some b -> b
    | None ->
      Array.of_list
        (List.map (fun kl -> class_base ctx ~children kl) classes)
  in
  let manyb = many_base ctx ~children in
  (* Children identity for the per-combo atom cache; [None] when some
     child is untagged (external callers) — then no sharing. *)
  let ckey =
    if Array.for_all (fun c -> Ext_state.tag c >= 0) children then
      Some (Array.map Ext_state.tag children)
    else None
  in
  let c0s = decide_c0 ctx ~label ~children ~ckey ~bases ~manyb in
  List.map
    (fun (c0, pc0, light) ->
      assemble ?t0 ?dup_cap ctx ~children ~bases ~manyb ~c0 ~pc0 ~light)
    c0s
(* Distinct c0 give distinct states; no dedup needed. *)

let leaf ?t0 ?dup_cap ctx label =
  combine ?t0 ?dup_cap ctx label [||]
    [ { Merging.has_root = true; members = [] } ]
