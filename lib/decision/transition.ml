module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder
module Label = Xpds_datatree.Label
open Xpds_xpath.Ast

type result = { state : Ext_state.t; class_values : int array }

module BvTbl = Hashtbl.Make (Bitv)

(* Everything a transition reads of a root label candidate besides its
   full labelling, for one read projection [pc0] (the candidate's states
   that label read edges): the backward sets and the case-1 lifts. The
   arrays are filled on demand; [unset] and [no_lift] mark the entries
   not computed yet. *)
type label_ctx = {
  pc0 : Bitv.t;
  v : int array array;
      (** per k: V(k), the sources from which one up-step can reach k
          under [pc0] *)
  back : int array array;
      (** per pair position i = (k1,k2): the positions of the observable
          pairs of V(k1) × V(k2) — the child pairs case 1 lifts onto i *)
  mutable lifts : int array array;
      (** per child tag: the child's (eq, neq) lifted through case 1,
          over the pair space, as the raw words of eq then those of
          neq. A basis state is combined into thousands of combos under
          few distinct projections, so the lift amortizes to an array
          read *)
}

let unset = [| -1 |]
let no_lift = [| 0 |]
let bpw = Sys.int_size

type ctx = {
  m : Bip.t;
  read_mask : Bitv.t;
      (** BIP states labelling at least one read edge. Closures, backward
          sets and lifts consult a candidate root label only through
          these states, so candidates agreeing on the projection share
          one label context *)
  index : Ext_state.index;
      (** the pair space of every atom matrix the ctx builds *)
  fst : int array;
  snd : int array;  (** per pair position: the pair's two states *)
  memo : Pathfinder.memo;
      (** per-search closure/step-up caches (not thread-safe: a ctx must
          stay on the domain that created it) *)
  label_ctxs : label_ctx BvTbl.t;  (** per read projection *)
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

let make_ctx ?(project_pairs = false) (m : Bip.t) =
  let pf = m.Bip.pf and preds = m.Bip.preds in
  let k_card = pf.Pathfinder.n_states in
  let read_mask = Bitv.builder m.Bip.q_card in
  Array.iter
    (fun q -> if q >= 0 then Bitv.add_in_place q read_mask)
    preds.Bip.lbl;
  let index, fst, snd =
    (* The mask closure is worst-case O(K^4); beyond ~128 pathfinder
       states its cost outweighs the state-space savings. *)
    if (not project_pairs) || k_card > 128 then
      let k_card_sq = k_card * k_card in
      ( Ext_state.identity k_card,
        Array.init k_card_sq (fun p -> p / k_card),
        Array.init k_card_sq (fun p -> p mod k_card) )
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
              for i = preds.Bip.off.(cur) to preds.Bip.off.(cur + 1) - 1 do
                let src = preds.Bip.src.(i) in
                if preds.Bip.lbl.(i) < 0 then Bitv.add_in_place src v
                else if not (Bitv.builder_mem src seen) then begin
                  Bitv.add_in_place src seen;
                  stack.(!top) <- src;
                  incr top
                end
              done
            done;
            Bitv.freeze v)
      in
      (* Observable pairs: the μ-atoms, the diagonal (used by the
         structural invariants), closed under simultaneous backward
         steps (the lifted case-1 queries). A pair is numbered when it
         enters the queue, so the queue is the index's position table;
         the set stays symmetric, and each flat pair k1·K+k2 enters the
         queue at most once. *)
      let k_card_sq = k_card * k_card in
      let pos = Array.make k_card_sq (-1) in
      let queue = Array.make k_card_sq 0 and tail = ref 0 in
      let push p =
        pos.(p) <- !tail;
        queue.(!tail) <- p;
        incr tail
      in
      let add k1 k2 =
        let p = (k1 * k_card) + k2 in
        if pos.(p) < 0 then begin
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
      let fst = Array.init !tail (fun i -> queue.(i) / k_card)
      and snd = Array.init !tail (fun i -> queue.(i) mod k_card) in
      (Ext_state.pairs ~k_card ~pos ~fst ~snd, fst, snd)
    end
  in
  {
    m;
    read_mask = Bitv.freeze read_mask;
    index;
    fst;
    snd;
    memo = Pathfinder.memo pf;
    label_ctxs = BvTbl.create 16;
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
   bases. A case-1 lift, in a state or in a light's atom, is an ∃ over
   the children's pairs, so the matrices enter only through their
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

(* The label context of a read projection, made on first use. *)
let label_ctx ctx pc0 =
  match BvTbl.find_opt ctx.label_ctxs pc0 with
  | Some lc -> lc
  | None ->
    let lc =
      {
        pc0;
        v = Array.make ctx.m.Bip.pf.Pathfinder.n_states unset;
        back = Array.make (Array.length ctx.fst) unset;
        lifts = [||];
      }
    in
    BvTbl.add ctx.label_ctxs pc0 lc;
    lc

(* V(k): walk the non-moving edges enabled by [pc0] backwards from k and
   collect the sources of the up-edges into every state met. *)
let v_of ctx lc k =
  let v = lc.v.(k) in
  if v != unset then v
  else begin
    let preds = ctx.m.Bip.preds in
    let k_card = ctx.m.Bip.pf.Pathfinder.n_states in
    let seen = Bitv.builder k_card and found = Bitv.builder k_card in
    let out = ref [] in
    let rec visit cur =
      Bitv.add_in_place cur seen;
      for i = preds.Bip.off.(cur) to preds.Bip.off.(cur + 1) - 1 do
        let src = preds.Bip.src.(i) and q = preds.Bip.lbl.(i) in
        if q < 0 then begin
          if not (Bitv.builder_mem src found) then begin
            Bitv.add_in_place src found;
            out := src :: !out
          end
        end
        else if Bitv.mem q lc.pc0 && not (Bitv.builder_mem src seen) then
          visit src
      done
    in
    visit k;
    let v = Array.of_list !out in
    lc.v.(k) <- v;
    v
  end

(* The positions case 1 lifts onto pair position [i]. The pair space is
   closed under backward steps under the full label, so every pair of
   V(k1) × V(k2) is observable; the test only guards the contract. *)
let back_of ctx lc i =
  let b = lc.back.(i) in
  if b != unset then b
  else begin
    let v1 = v_of ctx lc ctx.fst.(i) and v2 = v_of ctx lc ctx.snd.(i) in
    let out = ref [] in
    Array.iter
      (fun k'1 ->
        Array.iter
          (fun k'2 ->
            let j = Ext_state.position ctx.index k'1 k'2 in
            if j >= 0 then out := j :: !out)
          v2)
      v1;
    let b = Array.of_list !out in
    lc.back.(i) <- b;
    b
  end

let meets back m = Array.exists (fun j -> Bitv.mem j m) back

(* Case 1 for one child: pair i of the parent is lifted from the child
   iff the child's matrix meets back(i). Memoized per (label context,
   child tag). *)
let lift_of ctx lc (c : Ext_state.t) =
  let compute () =
    let w = Array.length ctx.fst in
    let nw = Bitv.word_count w in
    let words = Array.make (2 * nw) 0 in
    let eq = c.Ext_state.eq and neq = c.Ext_state.neq in
    let any_eq = not (Bitv.is_empty eq)
    and any_neq = not (Bitv.is_empty neq) in
    if any_eq || any_neq then
      for i = 0 to w - 1 do
        let b = back_of ctx lc i in
        let j = i / bpw and bit = 1 lsl (i mod bpw) in
        if any_eq && meets b eq then words.(j) <- words.(j) lor bit;
        if any_neq && meets b neq then
          words.(nw + j) <- words.(nw + j) lor bit
      done;
    words
  in
  let tag = Ext_state.tag c in
  if tag < 0 then compute ()
  else begin
    if tag >= Array.length lc.lifts then begin
      let lifts = Array.make (max 64 (2 * tag)) no_lift in
      Array.blit lc.lifts 0 lifts 0 (Array.length lc.lifts);
      lc.lifts <- lifts
    end;
    let l = lc.lifts.(tag) in
    if l != no_lift then l
    else begin
      let l = compute () in
      lc.lifts.(tag) <- l;
      l
    end
  end

(* The evaluation context of one read projection [pc0] for one merging
   of one children array: the class reach sets and the many set under
   [pc0], the class membership of each state, the projection's label
   context, and a per-atom memo. μ's data atoms are answered from these:
   values shared through a merging class (cases 2-4), the many-source
   rule (case 4'), and pairs lifted from a child's own valuation through
   the backward sets (case 1). Every answer depends on the root label
   only through [pc0], so one light serves every label of the merging. *)
type light = {
  lr : Bitv.t array;  (** per merging class: reach at the root *)
  lmany0 : Bitv.t;  (** M: states inheriting >= 2 values *)
  lcls : int array;
      (** per k: the class whose reach holds k, -1 when none does, -2
          when several do *)
  lmember : int array;
      (** per k, with at most [Sys.int_size] classes (else empty): the
          classes whose reach holds k, as a bit mask *)
  llc : label_ctx;
  latoms : int array;
      (** per-atom memo, two bits (known, truth) per code 2·i+op of an
          atom over pair position i; atoms recur across the μ of
          different BIP states and labels *)
}

(* The class reaches and the many set under the read projection [pc0]
   (the closures of the class bases and of the many base), and the
   class membership, in one pass over the reaches' set bits. *)
let build_light ctx ~pc0 ~bases ~manyb =
  let k_card = ctx.m.Bip.pf.Pathfinder.n_states in
  let cl x = Pathfinder.closure_m ctx.memo ~label:pc0 x in
  let lr = Array.map cl bases in
  let n_classes = Array.length lr in
  let lcls = Array.make k_card (-1) in
  let lmember =
    if n_classes <= Sys.int_size then Array.make k_card 0 else [||]
  in
  for e = 0 to n_classes - 1 do
    Bitv.iter
      (fun k ->
        lcls.(k) <- (if lcls.(k) = -1 then e else -2);
        if Array.length lmember > 0 then
          lmember.(k) <- lmember.(k) lor (1 lsl e))
      lr.(e)
  done;
  {
    lr;
    lmany0 = (if Bitv.is_empty manyb then manyb else cl manyb);
    lcls;
    lmember;
    llc = label_ctx ctx pc0;
    latoms = Array.make (((2 * Array.length ctx.fst) + 30) / 31) 0;
  }

(* Cases 2-4: one class reaches both ks; two distinct classes do. *)
let class_eq l k1 k2 =
  let c1 = l.lcls.(k1) and c2 = l.lcls.(k2) in
  c1 <> -1 && c2 <> -1
  && ((c1 >= 0 && c1 = c2)
     || (c1 = -2 || c2 = -2)
        &&
        if Array.length l.lmember > 0 then
          l.lmember.(k1) land l.lmember.(k2) <> 0
        else Array.exists (fun r -> Bitv.mem k1 r && Bitv.mem k2 r) l.lr)

let class_neq l k1 k2 =
  let c1 = l.lcls.(k1) and c2 = l.lcls.(k2) in
  c1 <> -1 && c2 <> -1 && not (c1 >= 0 && c1 = c2)

let light_nonzero l k = l.lcls.(k) <> -1 || Bitv.mem k l.lmany0

let light_atom_raw ctx light (children : Ext_state.t array) ~i k1 k2
    (op : Xpds_xpath.Ast.op) =
  let lifted matrix_of =
    let b = back_of ctx light.llc i in
    Array.exists (fun (c : Ext_state.t) -> meets b (matrix_of c)) children
  in
  match op with
  | Eq ->
    class_eq light k1 k2 || lifted (fun (c : Ext_state.t) -> c.Ext_state.eq)
  | Neq ->
    class_neq light k1 k2
    || (Bitv.mem k1 light.lmany0 && light_nonzero light k2)
    || (Bitv.mem k2 light.lmany0 && light_nonzero light k1)
    || lifted (fun (c : Ext_state.t) -> c.Ext_state.neq)

(* [make_ctx] seeds the pair space with μ's atoms, so [i >= 0]; an
   atom's memo cell is two bits, 31 cells to a word. *)
let light_atom ctx light children k1 k2 (op : Xpds_xpath.Ast.op) =
  let i = Ext_state.position ctx.index k1 k2 in
  let code = (2 * i) + (match op with Eq -> 0 | Neq -> 1) in
  let w = code / 31 and sh = 2 * (code mod 31) in
  let cell = light.latoms.(w) lsr sh in
  if cell land 1 <> 0 then cell land 2 <> 0
  else begin
    let b = light_atom_raw ctx light children ~i k1 k2 op in
    light.latoms.(w) <- light.latoms.(w) lor ((if b then 3 else 1) lsl sh);
    b
  end

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

(* One merging of one children array, ready to apply under any root
   label: the class bases, the many base, and the lights of the read
   projections met so far, which every label of the merging shares. *)
type step = {
  t0 : int;
  dup_cap : int option;
  children : Ext_state.t array;
  bases : Bitv.t array;
  manyb : Bitv.t;
  mutable lights : (Bitv.t * light Lazy.t) list;
}

(* The light of [pc0], made lazily: forced only when a data atom is
   reached or a state assembled. *)
let light_of ctx st pc0 =
  let rec find = function
    | (p, l) :: rest -> if Bitv.equal p pc0 then l else find rest
    | [] ->
      let l =
        lazy (build_light ctx ~pc0 ~bases:st.bases ~manyb:st.manyb)
      in
      st.lights <- (pc0, l) :: st.lights;
      l
  in
  find st.lights

(* Decide C(v0) component by component; returns every consistent root
   label with the light of its read projection (a singleton for
   stratified automata). The components are walked depth first over one
   mutable candidate: a trivial component adds its state when μ holds
   under the candidate so far; a cyclic one tries every labelling of its
   states (with each state, then without, in component order) and keeps
   those where μ agrees with the labelling under the completed
   candidate. Consistent labels come out in the order of a
   component-by-component breadth-first search: both list the leaves of
   the same choice tree from left to right.

   μ sees the candidate only through the light of its read projection
   (every answer a light gives depends on the label only through enabled
   read edges), so a light is shared along the walk, and the light
   changes only when an added state labels a read edge. *)
let decide_c0 ctx st ~label =
  let m = ctx.m and children = st.children in
  let cand = ctx.cand and proj = ctx.proj in
  Bitv.builder_reset cand;
  Bitv.builder_reset proj;
  let holds light q =
    eval_form_light ctx children ~label ~light m.Bip.mu.(q)
  in
  (* [with_state q light k] runs [k] with [q] added to the candidate
     and the light that goes with it, then takes [q] out. *)
  let with_state q light k =
    Bitv.add_in_place q cand;
    if Bitv.mem q ctx.read_mask then begin
      Bitv.add_in_place q proj;
      k (light_of ctx st (Bitv.freeze proj));
      Bitv.remove_in_place q proj
    end
    else k light;
    Bitv.remove_in_place q cand
  in
  let out = ref [] in
  let rec walk light = function
    | [] -> out := (Bitv.freeze cand, light) :: !out
    | [ q ] :: rest when not (Bitv.mem q m.Bip.deps.(q)) ->
      if holds light q then with_state q light (fun light -> walk light rest)
      else walk light rest
    | comp :: rest ->
      let rec assign light = function
        | [] ->
          if
            List.for_all
              (fun q -> holds light q = Bitv.builder_mem q cand)
              comp
          then walk light rest
        | q :: qs ->
          with_state q light (fun light -> assign light qs);
          assign light qs
      in
      assign light comp
  in
  walk (light_of ctx st (Bitv.freeze proj)) m.Bip.components;
  List.rev !out

(* The parent's atom matrices over the pair space, in one pass over its
   pairs, accumulated word by word: the class cases and the many-source
   rule as the light answers them, and the children's lifts for case 1. *)
let build_eval ctx (l : light) ~(children : Ext_state.t array) =
  let fst = ctx.fst and snd = ctx.snd and cls = l.lcls in
  let w = Array.length fst in
  let nw = Bitv.word_count w in
  let words = Array.make (2 * nw) 0 in
  let any_many = not (Bitv.is_empty l.lmany0) in
  let is_many = Array.make (if any_many then Array.length cls else 0) false in
  Bitv.iter (fun k -> is_many.(k) <- true) l.lmany0;
  for j = 0 to nw - 1 do
    let lo = j * bpw in
    let eqw = ref 0 and neqw = ref 0 in
    for i = lo to min w (lo + bpw) - 1 do
      let k1 = fst.(i) and k2 = snd.(i) in
      let bit = 1 lsl (i - lo) in
      if class_eq l k1 k2 then eqw := !eqw lor bit;
      if
        class_neq l k1 k2
        || any_many
           && ((is_many.(k1) && (cls.(k2) <> -1 || is_many.(k2)))
              || (is_many.(k2) && (cls.(k1) <> -1 || is_many.(k1))))
      then neqw := !neqw lor bit
    done;
    words.(j) <- !eqw;
    words.(nw + j) <- !neqw
  done;
  Array.iter
    (fun c ->
      let lw = lift_of ctx l.llc c in
      for j = 0 to (2 * nw) - 1 do
        words.(j) <- words.(j) lor lw.(j)
      done)
    children;
  (Bitv.of_words w words 0, Bitv.of_words w words nw)

(* Assemble the extended state for a fully decided root label [c0].
   Everything but the labelling is read through [light], the light of
   c0's read projection. *)
let assemble ctx st ~c0 ~light =
  let l = Lazy.force light in
  let k_card = ctx.m.Bip.pf.Pathfinder.n_states in
  let r = l.lr and many0 = l.lmany0 and cls = l.lcls in
  let n_classes = Array.length r in
  (* Multiplicities: a k in two classes (or already in M) is many, in
     one is unique. The root class and every unique target are
     mandatory: never dropped when capping at t0. *)
  let unique = Array.make k_card (-1) in
  let mandatory = Array.make n_classes false in
  if n_classes > 0 then mandatory.(0) <- true;
  let many_b = Bitv.builder_of many0 in
  for k = 0 to k_card - 1 do
    let e = cls.(k) in
    if e = -2 then Bitv.add_in_place k many_b
    else if e >= 0 && not (Bitv.mem k many0) then begin
      unique.(k) <- e;
      mandatory.(e) <- true
    end
  done;
  let many = Bitv.freeze many_b in
  let eq, neq = build_eval ctx l ~children:st.children in
  (* Described values: every class with a nonempty reach, root first.
     Values with identical descriptions are interchangeable except for
     their pairwise distinctness; keep at most [dup_cap] copies of each
     description among the optional ones (a practical knob — the paper
     keeps everything up to t0). *)
  let copies e =
    let n = ref 0 in
    for e' = 0 to e - 1 do
      if (not mandatory.(e')) && Bitv.equal r.(e') r.(e) then incr n
    done;
    !n
  in
  let kept = Array.make n_classes 0 and n_kept = ref 0 in
  for e = 0 to n_classes - 1 do
    if
      (not (Bitv.is_empty r.(e)))
      &&
      match st.dup_cap with
      | Some cap when not mandatory.(e) -> copies e < cap
      | _ -> true
    then begin
      kept.(!n_kept) <- e;
      incr n_kept
    end
  done;
  let kept =
    if !n_kept <= st.t0 then Array.sub kept 0 !n_kept
    else begin
      let mand, opt =
        List.partition
          (fun e -> mandatory.(e))
          (Array.to_list (Array.sub kept 0 !n_kept))
      in
      let budget = max 0 (st.t0 - List.length mand) in
      let opt_sorted =
        List.sort
          (fun e1 e2 ->
            Int.compare (Bitv.cardinal r.(e2)) (Bitv.cardinal r.(e1)))
          opt
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      Array.of_list (List.sort Int.compare (mand @ take budget opt_sorted))
    end
  in
  (* The canonical order: the kept classes stably sorted by description
     (a handful: insertion sort). A class's value is its rank; dropped
     classes keep their ks' multiplicity and only lose the
     description. *)
  for i = 1 to Array.length kept - 1 do
    let x = kept.(i) in
    let j = ref i in
    while !j > 0 && Bitv.compare r.(kept.(!j - 1)) r.(x) > 0 do
      kept.(!j) <- kept.(!j - 1);
      decr j
    done;
    kept.(!j) <- x
  done;
  let class_values = Array.make n_classes (-1) in
  Array.iteri (fun rank e -> class_values.(e) <- rank) kept;
  let state =
    Ext_state.make_unchecked ~index:ctx.index ~states:c0 ~eq ~neq
      ~values:(Array.map (fun e -> r.(e)) kept)
      ~unique:
        (Array.map (fun e -> if e >= 0 then class_values.(e) else -1) unique)
      ~many
  in
  { state; class_values }

let step ?t0 ?dup_cap ?bases ctx children (classes : Merging.t) =
  (* Class bases and the many base do not depend on the root label:
     compute them once and share them across every label, the whole c0
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
  {
    t0 = (match t0 with Some t -> t | None -> t0_default ctx.m);
    dup_cap;
    children;
    bases;
    manyb = many_base ctx ~children;
    lights = [];
  }

let apply ctx st label =
  List.map
    (fun (c0, light) -> assemble ctx st ~c0 ~light)
    (decide_c0 ctx st ~label)
(* Distinct c0 give distinct states; no dedup needed. *)

let combine ?t0 ?dup_cap ?bases ctx label children classes =
  apply ctx (step ?t0 ?dup_cap ?bases ctx children classes) label

let leaf ?t0 ?dup_cap ctx label =
  combine ?t0 ?dup_cap ctx label [||]
    [ { Merging.has_root = true; members = [] } ]
