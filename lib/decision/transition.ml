module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder
module Label = Xpds_datatree.Label
open Xpds_xpath.Ast

type result = { state : Ext_state.t; class_values : int array }

let bpw = Sys.int_size

(* Loops instead of [Array.blit]/[Array.fill], which are C calls that
   cost more than the few words a kernel step moves. *)
let copy src spos dst dpos n =
  for i = 0 to n - 1 do
    dst.(dpos + i) <- src.(spos + i)
  done

let fill a pos n x =
  for i = pos to pos + n - 1 do
    a.(i) <- x
  done

(* Everything a transition reads of a root label candidate besides its
   full labelling, for one read projection [pc0] (the candidate's states
   that label read edges): the backward sets, the case-1 lifts and the
   closures of single states. The arrays are filled on demand; [unset],
   [no_lift] and a clear [reach_known] byte mark the entries not
   computed yet. *)
type label_ctx = {
  pc0 : Bitv.t;
  pcw : int array;  (** [pc0]'s words *)
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
  reach1 : int array;
      (** at [k · word_count |K|]: the closure of {k} under [pc0]. A
          closure is a reachability set, so the closure of a class base
          is the union of its states' closures: a few word ORs instead
          of a memo probe keyed on two fresh sets *)
  reach_known : Bytes.t;  (** per k: whether [reach1] holds k's closure *)
}

let unset = [| -1 |]
let no_lift = [| 0 |]

(* The evaluation context of one read projection for one step (one
   merging of one children array): the class reach sets and the many set
   under [lc.pc0], the class membership of each state, and the
   children's case-1 lifts. μ's data atoms are answered from these:
   values shared through a merging class (cases 2-4), the many-source
   rule (case 4'), and pairs lifted from a child's own valuation through
   the backward sets (case 1). Every answer depends on the root label
   only through [pc0], so one light serves every label of the step.
   Lights are the ctx's scratch, reused from step to step; a light is
   built on first use (a data atom, or an assembled state). *)
type light = {
  mutable lc : label_ctx;
  mutable built : bool;
  mutable lr : int array;  (** class c's reach at [c · word_count |K|] *)
  lmany0 : int array;  (** M: the states inheriting >= 2 values *)
  lcls : int array;
      (** per k: the class whose reach holds k, -1 when none does, -2
          when several do *)
  lmember : int array;
      (** per k, with at most [Sys.int_size] classes: the classes whose
          reach holds k, as a bit mask *)
  lflags : int array;
      (** per k: bit 0 when k is in M, bit 1 when k retrieves a value
          (in M or in some class's reach) *)
  lifted : int array;
      (** the children's lifts ORed: case 1's eq words, then its neq
          words *)
}

(* One merging of one children array, ready to apply under any root
   label: the class bases and the many base as raw words, and the lights
   of the read projections met so far, which every label shares. *)
type step = {
  mutable t0 : int;
  mutable dup_cap : int option;
  mutable children : Ext_state.t array;
  mutable n_classes : int;
  mutable bases : int array;  (** class c's base at [c · word_count |K|] *)
  manyb : int array;  (** ∪ step_up(c.many) over the children *)
  mutable n_lights : int;  (** lights [0 .. n_lights - 1] are this step's *)
}

type ctx = {
  m : Bip.t;
  index : Ext_state.index;
      (** the pair space of every atom matrix the ctx builds *)
  fst : int array;
  snd : int array;  (** per pair position: the pair's two states *)
  pos : int array;
      (** [k1·|K|+k2] -> the pair's position; empty for the identity
          index, whose position is [k1·|K|+k2] itself *)
  memo : Pathfinder.memo;
      (** per-search closure/step-up caches (not thread-safe: a ctx must
          stay on the domain that created it) *)
  counting : bool;  (** μ has downward-counting atoms *)
  kc : int;  (** |K| *)
  nwk : int;
  nwq : int;
  nwp : int;  (** words per set of K, of Q, of the pair space *)
  is_read : bool array;
      (** per BIP state: whether it labels a read edge. Closures,
          backward sets and lifts consult a candidate root label only
          through these states, so candidates agreeing on the
          projection share one label context and one light *)
  comps : int array array;  (** μ's dependency SCCs, in order *)
  cyclic : bool array;  (** per SCC: not a single state free of itself *)
  lc_ids : Wordtbl.t;  (** read projection words -> label context id *)
  mutable lcs : label_ctx array;
  cand : int array;
      (** the walk's candidate root label, grown and shrunk in place *)
  proj : int array;  (** [cand]'s read states, maintained alongside *)
  st : step;  (** the step {!step} fills *)
  mutable lights : light array;
  (* the assembled result: its encoding, hash and class values *)
  mutable enc : int array;
  mutable enc_len : int;
  mutable enc_hash : int;
  mutable cv : int array;
  mutable order : int array;  (** the classes stably sorted by reach *)
  mutable keep : int array;  (** per class: 1 when its value is kept *)
  mutable card : int array;  (** {!cap_kept}'s reach sizes *)
  mutable mand : int array;  (** per class: 1 when never dropped *)
  (* the sets of materialized results, hash-consed *)
  sets : Wordtbl.t;  (** [width; words] -> index into [shared] *)
  mutable shared : Bitv.t array;
  mutable sbuf : int array;
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
  let index, fst, snd, pos =
    (* The mask closure is worst-case O(K^4); beyond ~128 pathfinder
       states its cost outweighs the state-space savings. *)
    if (not project_pairs) || k_card > 128 then
      let k_card_sq = k_card * k_card in
      ( Ext_state.identity k_card,
        Array.init k_card_sq (fun p -> p / k_card),
        Array.init k_card_sq (fun p -> p mod k_card),
        [||] )
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
      (Ext_state.pairs ~k_card ~pos ~fst ~snd, fst, snd, pos)
    end
  in
  let is_read = Array.make m.Bip.q_card false in
  Array.iter (fun q -> if q >= 0 then is_read.(q) <- true) preds.Bip.lbl;
  let comps = Array.of_list (List.map Array.of_list m.Bip.components) in
  let nwk = Bitv.word_count k_card in
  {
    m;
    index;
    fst;
    snd;
    pos;
    memo = Pathfinder.memo pf;
    counting = has_counting m;
    kc = k_card;
    nwk;
    nwq = Bitv.word_count m.Bip.q_card;
    nwp = Bitv.word_count (Array.length fst);
    is_read;
    comps;
    cyclic =
      Array.map
        (function [| q |] -> Bitv.mem q m.Bip.deps.(q) | _ -> true)
        comps;
    lc_ids = Wordtbl.create 8;
    lcs = [||];
    cand = Array.make (Bitv.word_count m.Bip.q_card) 0;
    proj = Array.make (Bitv.word_count m.Bip.q_card) 0;
    st =
      {
        t0 = 0;
        dup_cap = None;
        children = [||];
        n_classes = 0;
        bases = [||];
        manyb = Array.make nwk 0;
        n_lights = 0;
      };
    lights = [||];
    enc = [||];
    enc_len = 0;
    enc_hash = 0;
    cv = [||];
    order = [||];
    keep = [||];
    card = [||];
    mand = [||];
    sets = Wordtbl.create 8;
    shared = [||];
    sbuf = [||];
  }

let bip_of ctx = ctx.m
let memo_of ctx = ctx.memo

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

(* The label context of the read projection in [ctx.proj], made on
   first use. *)
let label_ctx ctx =
  let nwq = ctx.nwq in
  let h = Wordtbl.hash ctx.proj 0 nwq in
  let id = Wordtbl.find ctx.lc_ids ctx.proj 0 nwq h in
  if id >= 0 then ctx.lcs.(id)
  else begin
    let id = Wordtbl.add ctx.lc_ids ctx.proj 0 nwq h in
    let lc =
      {
        pc0 = Bitv.of_words ctx.m.Bip.q_card ctx.proj 0;
        pcw = Array.sub ctx.proj 0 nwq;
        v = Array.make ctx.kc unset;
        back = Array.make (Array.length ctx.fst) unset;
        lifts = [||];
        reach1 = Array.make (ctx.kc * ctx.nwk) 0;
        reach_known = Bytes.make ctx.kc '\000';
      }
    in
    if id >= Array.length ctx.lcs then begin
      let lcs = Array.make (max 8 (2 * id)) lc in
      Array.blit ctx.lcs 0 lcs 0 id;
      ctx.lcs <- lcs
    end;
    ctx.lcs.(id) <- lc;
    lc
  end

let position ctx k1 k2 =
  if Array.length ctx.pos = 0 then (k1 * ctx.kc) + k2
  else ctx.pos.((k1 * ctx.kc) + k2)

(* V(k): walk the non-moving edges enabled by [pc0] backwards from k and
   collect the sources of the up-edges into every state met. *)
let v_of ctx lc k =
  let v = lc.v.(k) in
  if v != unset then v
  else begin
    let preds = ctx.m.Bip.preds in
    let seen = Bitv.builder ctx.kc and found = Bitv.builder ctx.kc in
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
            let j = position ctx k'1 k'2 in
            if j >= 0 then out := j :: !out)
          v2)
      v1;
    let b = Array.of_list !out in
    lc.back.(i) <- b;
    b
  end

(* Whether the set whose words are at [w.(pos)] holds a position of
   [back]. *)
let meets back w pos =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length back do
    let j = back.(!i) in
    found := w.(pos + (j / bpw)) land (1 lsl (j mod bpw)) <> 0;
    incr i
  done;
  !found

(* Case 1 for one child: pair i of the parent is lifted from the child
   iff the child's matrix meets back(i). Memoized per (label context,
   child tag). *)
let compute_lift ctx lc (c : Ext_state.t) =
    let w = Array.length ctx.fst in
    let nw = ctx.nwp in
    let words = Array.make (2 * nw) 0 in
    let eq = c.Ext_state.eq and neq = c.Ext_state.neq in
    let any_eq = not (Bitv.is_empty eq)
    and any_neq = not (Bitv.is_empty neq) in
    if any_eq || any_neq then begin
      let cw = Array.make (2 * nw) 0 in
      Bitv.blit_words eq cw 0;
      Bitv.blit_words neq cw nw;
      for i = 0 to w - 1 do
        let b = back_of ctx lc i in
        let j = i / bpw and bit = 1 lsl (i mod bpw) in
        if any_eq && meets b cw 0 then words.(j) <- words.(j) lor bit;
        if any_neq && meets b cw nw then
          words.(nw + j) <- words.(nw + j) lor bit
      done
    end;
    words

let lift_of ctx lc (c : Ext_state.t) =
  let tag = Ext_state.tag c in
  if tag < 0 then compute_lift ctx lc c
  else begin
    if tag >= Array.length lc.lifts then begin
      let lifts = Array.make (max 64 (2 * tag)) no_lift in
      Array.blit lc.lifts 0 lifts 0 (Array.length lc.lifts);
      lc.lifts <- lifts
    end;
    let l = lc.lifts.(tag) in
    if l != no_lift then l
    else begin
      let l = compute_lift ctx lc c in
      lc.lifts.(tag) <- l;
      l
    end
  end

(* [dst] at [dpos] := the closure under [lc.pc0] of the set of K at
   [src.(pos)], as the union of its states' closures. *)
let reach_union ctx lc src pos dst dpos =
  let nwk = ctx.nwk and r1 = lc.reach1 in
  fill dst dpos nwk 0;
  for j = 0 to nwk - 1 do
    let w = ref src.(pos + j) in
    while !w <> 0 do
      let k = (j * bpw) + Bitv.lowest_bit !w in
      w := !w land (!w - 1);
      if Bytes.get lc.reach_known k = '\000' then begin
        let r =
          Pathfinder.closure ctx.m.Bip.pf ~label:lc.pc0
            (Bitv.singleton ctx.kc k)
        in
        Bitv.blit_words r r1 (k * nwk);
        Bytes.set lc.reach_known k '\001'
      end;
      let o = k * nwk in
      for x = 0 to nwk - 1 do
        dst.(dpos + x) <- dst.(dpos + x) lor r1.(o + x)
      done
    done
  done

(* The class reaches and the many set under the light's projection,
   the class membership and flags of every state, and the children's
   lifts, in one pass each. *)
let build_light ctx st l =
  let kc = ctx.kc and nwk = ctx.nwk and nc = st.n_classes and lc = l.lc in
  if Array.length l.lr < nc * nwk then
    l.lr <- Array.make (max (nc * nwk) (2 * Array.length l.lr)) 0;
  let lr = l.lr and cls = l.lcls and member = l.lmember in
  for c = 0 to nc - 1 do
    reach_union ctx lc st.bases (c * nwk) lr (c * nwk)
  done;
  reach_union ctx lc st.manyb 0 l.lmany0 0;
  for k = 0 to kc - 1 do
    cls.(k) <- -1;
    member.(k) <- 0;
    l.lflags.(k) <- 0
  done;
  for e = 0 to nc - 1 do
    for j = 0 to nwk - 1 do
      let w = ref lr.((e * nwk) + j) in
      while !w <> 0 do
        let k = (j * bpw) + Bitv.lowest_bit !w in
        w := !w land (!w - 1);
        cls.(k) <- (if cls.(k) = -1 then e else -2);
        if nc <= bpw then member.(k) <- member.(k) lor (1 lsl e);
        l.lflags.(k) <- 2
      done
    done
  done;
  for j = 0 to nwk - 1 do
    let w = ref l.lmany0.(j) in
    while !w <> 0 do
      let k = (j * bpw) + Bitv.lowest_bit !w in
      w := !w land (!w - 1);
      l.lflags.(k) <- 3
    done
  done;
  let lifted = l.lifted and n = 2 * ctx.nwp in
  fill lifted 0 n 0;
  for c = 0 to Array.length st.children - 1 do
    let lw = lift_of ctx lc st.children.(c) in
    for j = 0 to n - 1 do
      lifted.(j) <- lifted.(j) lor lw.(j)
    done
  done;
  l.built <- true

(* Cases 2-4: one class reaches both ks; two distinct classes do. *)
let shared_class ctx st l k1 k2 =
  if st.n_classes <= bpw then l.lmember.(k1) land l.lmember.(k2) <> 0
  else begin
    let nwk = ctx.nwk and lr = l.lr in
    let bit k e = lr.((e * nwk) + (k / bpw)) land (1 lsl (k mod bpw)) <> 0 in
    let found = ref false and e = ref 0 in
    while (not !found) && !e < st.n_classes do
      found := bit k1 !e && bit k2 !e;
      incr e
    done;
    !found
  end

let class_eq ctx st l k1 k2 =
  let c1 = l.lcls.(k1) and c2 = l.lcls.(k2) in
  c1 <> -1 && c2 <> -1
  && ((c1 >= 0 && c1 = c2)
     || ((c1 = -2 || c2 = -2) && shared_class ctx st l k1 k2))

(* An atom of μ under the light; [make_ctx] seeds the pair space with
   μ's atoms, so its position is [>= 0]. *)
let light_atom ctx st l k1 k2 (op : Xpds_xpath.Ast.op) =
  if not l.built then build_light ctx st l;
  let i = position ctx k1 k2 in
  let half = match op with Eq -> 0 | Neq -> ctx.nwp in
  l.lifted.(half + (i / bpw)) land (1 lsl (i mod bpw)) <> 0
  ||
  match op with
  | Eq -> class_eq ctx st l k1 k2
  | Neq ->
    let c1 = l.lcls.(k1) and c2 = l.lcls.(k2) in
    (c1 <> -1 && c2 <> -1 && not (c1 >= 0 && c1 = c2))
    || (l.lflags.(k1) = 3 && l.lflags.(k2) <> 0)
    || (l.lflags.(k2) = 3 && l.lflags.(k1) <> 0)

let count_states (children : Ext_state.t array) q =
  let n = ref 0 in
  for i = 0 to Array.length children - 1 do
    if Bitv.mem q children.(i).Ext_state.states then incr n
  done;
  !n

let rec eval_form ctx st l (label : Label.t) = function
  | Bip.FTrue -> true
  | Bip.FFalse -> false
  | Bip.FLab a -> (a :> int) = (label :> int)
  | Bip.FNot f -> not (eval_form ctx st l label f)
  | Bip.FAnd (f, g) -> eval_form ctx st l label f && eval_form ctx st l label g
  | Bip.FOr (f, g) -> eval_form ctx st l label f || eval_form ctx st l label g
  | Bip.FEx (k1, k2, op) -> light_atom ctx st l k1 k2 op
  | Bip.FCountGe (q, n) -> count_states st.children q >= n
  | Bip.FCountZero q -> count_states st.children q = 0
  | Bip.FCountLt (q, n) -> count_states st.children q < n

(* The light of the read projection in [ctx.proj]: one of the step's
   lights, or the next pooled one, bound to the projection's label
   context and left to be built on first use. *)
let light_of ctx st =
  let nwq = ctx.nwq and proj = ctx.proj in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < st.n_lights do
    let pcw = ctx.lights.(!i).lc.pcw in
    let j = ref 0 in
    while !j < nwq && pcw.(!j) = proj.(!j) do
      incr j
    done;
    if !j = nwq then found := !i;
    incr i
  done;
  if !found >= 0 then ctx.lights.(!found)
  else begin
    let lc = label_ctx ctx in
    let i = st.n_lights in
    if i >= Array.length ctx.lights then begin
      let fresh _ =
        {
          lc;
          built = false;
          lr = [||];
          lmany0 = Array.make ctx.nwk 0;
          lcls = Array.make ctx.kc 0;
          lmember = Array.make ctx.kc 0;
          lflags = Array.make ctx.kc 0;
          lifted = Array.make (2 * ctx.nwp) 0;
        }
      in
      ctx.lights <-
        Array.append ctx.lights (Array.init (max 4 i) fresh)
    end;
    let l = ctx.lights.(i) in
    l.lc <- lc;
    l.built <- false;
    st.n_lights <- i + 1;
    l
  end

(* --- the assembled result ---

   A result is assembled into [ctx.enc], a flat encoding of the extended
   state that is injective on {!Ext_state.equal}'s classes, so that the
   caller can look the state up by its words and materialize only a new
   one:

   - [0 ..] the root label C (word_count |Q| words),
   - [o_eq ..], [o_neq ..] the atom matrices (word_count |pairs| each),
   - [o_many ..] the many set (word_count |K|),
   - [o_uni ..] [unique], one int per k,
   - [o_val] the number of described values, then their reach sets
     (word_count |K| each), in canonical order. *)

let o_eq ctx = ctx.nwq
let o_many ctx = ctx.nwq + (2 * ctx.nwp)
let o_uni ctx = o_many ctx + ctx.nwk
let o_val ctx = o_uni ctx + ctx.kc

(* Whether reach [a] comes after reach [b] in [Bitv.compare]'s order. *)
let reach_after lr nwk a b =
  let j = ref 0 and d = ref 0 in
  while !d = 0 && !j < nwk do
    d := Int.compare lr.((a * nwk) + !j) lr.((b * nwk) + !j);
    incr j
  done;
  !d > 0

let reach_equal lr nwk a b =
  let j = ref 0 in
  while !j < nwk && lr.((a * nwk) + !j) = lr.((b * nwk) + !j) do
    incr j
  done;
  !j = nwk

let reach_empty lr nwk a =
  let j = ref 0 in
  while !j < nwk && lr.((a * nwk) + !j) = 0 do
    incr j
  done;
  !j = nwk

(* The parent's atom matrices over the pair space, word by word: the
   class cases and the many-source rule as the light answers them, and
   the children's lifts for case 1. *)
let eval_words ctx st l =
  let fst = ctx.fst and snd = ctx.snd and cls = l.lcls and fl = l.lflags in
  let w = Array.length fst and nwp = ctx.nwp and enc = ctx.enc in
  let o_eq = o_eq ctx in
  for j = 0 to nwp - 1 do
    let lo = j * bpw in
    let eqw = ref 0 and neqw = ref 0 in
    for i = lo to min w (lo + bpw) - 1 do
      let k1 = fst.(i) and k2 = snd.(i) in
      let c1 = cls.(k1) and c2 = cls.(k2) in
      let bit = 1 lsl (i - lo) in
      if c1 <> -1 && c2 <> -1 then begin
        if c1 >= 0 && c1 = c2 then eqw := !eqw lor bit
        else begin
          neqw := !neqw lor bit;
          if (c1 = -2 || c2 = -2) && shared_class ctx st l k1 k2 then
            eqw := !eqw lor bit
        end
      end;
      if
        (fl.(k1) = 3 && fl.(k2) <> 0) || (fl.(k2) = 3 && fl.(k1) <> 0)
      then neqw := !neqw lor bit
    done;
    enc.(o_eq + j) <- !eqw lor l.lifted.(j);
    enc.(o_eq + nwp + j) <- !neqw lor l.lifted.(nwp + j)
  done

(* Keep at most [t0] of the [n_kept] kept values: the mandatory ones
   (the root class and every unique target) and, of the optional ones,
   the largest reaches, earlier classes first among equal sizes. *)
let cap_kept ctx st l n_kept =
  let nwk = ctx.nwk and nc = st.n_classes in
  let keep = ctx.keep and mand = ctx.mand in
  let n_mand = ref 0 in
  for e = 0 to nc - 1 do
    if keep.(e) = 1 && mand.(e) = 1 then incr n_mand
  done;
  let budget = max 0 (st.t0 - !n_mand) in
  (* [cv] is free until the ranks: the optional kept classes in class
     order, then insertion-sorted by descending reach size (stable) *)
  let opt = ctx.cv and card = ctx.card and n_opt = ref 0 in
  for e = 0 to nc - 1 do
    if keep.(e) = 1 && mand.(e) = 0 then begin
      let c = ref 0 in
      for j = 0 to nwk - 1 do
        c := !c + Bitv.popcount l.lr.((e * nwk) + j)
      done;
      let i = ref !n_opt in
      while !i > 0 && card.(!i - 1) < !c do
        opt.(!i) <- opt.(!i - 1);
        card.(!i) <- card.(!i - 1);
        decr i
      done;
      opt.(!i) <- e;
      card.(!i) <- !c;
      incr n_opt
    end
  done;
  for i = budget to !n_opt - 1 do
    keep.(opt.(i)) <- 0
  done;
  n_kept - max 0 (!n_opt - budget)

(* Assemble the extended state for the fully decided root label in
   [ctx.cand] into [ctx.enc] and the class values into [ctx.cv].
   Everything but the labelling is read through [l], the light of the
   label's read projection. *)
let assemble ctx st l =
  if not l.built then build_light ctx st l;
  let kc = ctx.kc and nwk = ctx.nwk and nc = st.n_classes in
  let o_many = o_many ctx and o_uni = o_uni ctx and o_val = o_val ctx in
  if Array.length ctx.enc < o_val + 1 + (nc * nwk) then
    ctx.enc <- Array.make (2 * (o_val + 1 + (nc * nwk))) 0;
  let enc = ctx.enc and cls = l.lcls and lr = l.lr and mand = ctx.mand in
  copy ctx.cand 0 enc 0 ctx.nwq;
  (* Multiplicities: a k in two classes (or already in M) is many, in
     one is unique. The root class and every unique target are
     mandatory: never dropped when capping at t0. [unique] holds class
     indices until the classes have their ranks. *)
  copy l.lmany0 0 enc o_many nwk;
  fill mand 0 nc 0;
  if nc > 0 then mand.(0) <- 1;
  for k = 0 to kc - 1 do
    let e = cls.(k) in
    let u =
      if e >= 0 && l.lflags.(k) <> 3 then begin
        mand.(e) <- 1;
        e
      end
      else -1
    in
    if e = -2 then begin
      let j = o_many + (k / bpw) in
      enc.(j) <- enc.(j) lor (1 lsl (k mod bpw))
    end;
    enc.(o_uni + k) <- u
  done;
  eval_words ctx st l;
  (* The classes stably sorted by description (a handful: insertion
     sort). A run of equal descriptions lists its classes in class
     order. *)
  let order = ctx.order and keep = ctx.keep in
  for e = 0 to nc - 1 do
    let j = ref e in
    while !j > 0 && reach_after lr nwk order.(!j - 1) e do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- e
  done;
  (* Described values: every class with a nonempty reach. Values with
     identical descriptions are interchangeable except for their
     pairwise distinctness; keep at most [dup_cap] copies of each
     description among the optional ones (a practical knob — the paper
     keeps everything up to t0): an optional class is kept when fewer
     than [dup_cap] optional classes before it share its description. *)
  let n_kept = ref 0 and copies = ref 0 in
  for i = 0 to nc - 1 do
    let e = order.(i) in
    if i = 0 || not (reach_equal lr nwk order.(i - 1) e) then copies := 0;
    let k =
      (not (reach_empty lr nwk e))
      &&
      match st.dup_cap with
      | Some cap when mand.(e) = 0 -> !copies < cap
      | _ -> true
    in
    if mand.(e) = 0 then incr copies;
    keep.(e) <- (if k then 1 else 0);
    if k then incr n_kept
  done;
  let n_kept =
    if !n_kept <= st.t0 then !n_kept else cap_kept ctx st l !n_kept
  in
  (* The canonical order: the kept classes in description order. A
     class's value is its rank; dropped classes keep their ks'
     multiplicity and only lose the description. *)
  let cv = ctx.cv in
  fill cv 0 nc (-1);
  enc.(o_val) <- n_kept;
  let rank = ref 0 in
  for i = 0 to nc - 1 do
    let e = order.(i) in
    if keep.(e) = 1 then begin
      cv.(e) <- !rank;
      copy lr (e * nwk) enc (o_val + 1 + (!rank * nwk)) nwk;
      incr rank
    end
  done;
  for k = 0 to kc - 1 do
    let e = enc.(o_uni + k) in
    if e >= 0 then enc.(o_uni + k) <- cv.(e)
  done;
  ctx.enc_len <- o_val + 1 + (n_kept * nwk);
  ctx.enc_hash <- Wordtbl.hash enc 0 ctx.enc_len

(* The set of that width whose words are at [src.(pos)], shared with
   every earlier result that had it: the sets of the states a search
   keeps repeat heavily (the described values most of all). *)
let share ctx width src pos =
  let n = Bitv.word_count width in
  if Array.length ctx.sbuf < n + 1 then ctx.sbuf <- Array.make (n + 1) 0;
  let b = ctx.sbuf in
  b.(0) <- width;
  copy src pos b 1 n;
  let fresh = Wordtbl.length ctx.sets in
  let id = Wordtbl.intern ctx.sets b 0 (n + 1) in
  if id < fresh then ctx.shared.(id)
  else begin
    let set = Bitv.of_words width src pos in
    if id >= Array.length ctx.shared then begin
      let a = Array.make (max 64 (2 * id)) set in
      Array.blit ctx.shared 0 a 0 id;
      ctx.shared <- a
    end;
    ctx.shared.(id) <- set;
    set
  end

let result ctx =
  let enc = ctx.enc and nwk = ctx.nwk and kc = ctx.kc in
  let o_val = o_val ctx in
  let state =
    Ext_state.make_unchecked ~index:ctx.index
      ~states:(share ctx ctx.m.Bip.q_card enc 0)
      ~eq:(share ctx (Array.length ctx.fst) enc (o_eq ctx))
      ~neq:(share ctx (Array.length ctx.fst) enc (o_eq ctx + ctx.nwp))
      ~values:
        (Array.init enc.(o_val) (fun v ->
             share ctx kc enc (o_val + 1 + (v * nwk))))
      ~unique:(Array.sub enc (o_uni ctx) kc)
      ~many:(share ctx kc enc (o_many ctx))
  in
  { state; class_values = Array.sub ctx.cv 0 ctx.st.n_classes }

let result_hash ctx = ctx.enc_hash

(* Whether [st] is the state [ctx.enc] encodes. *)
let is_result ctx (st : Ext_state.t) =
  let enc = ctx.enc and nwk = ctx.nwk in
  let o_val = o_val ctx and o_uni = o_uni ctx in
  let nv = enc.(o_val) in
  Array.length st.Ext_state.values = nv
  && Bitv.equal_words st.Ext_state.states enc 0
  && Bitv.equal_words st.Ext_state.eq enc (o_eq ctx)
  && Bitv.equal_words st.Ext_state.neq enc (o_eq ctx + ctx.nwp)
  && Bitv.equal_words st.Ext_state.many enc (o_many ctx)
  &&
  let ok = ref true and k = ref 0 in
  while !ok && !k < ctx.kc do
    ok := st.Ext_state.unique.(!k) = enc.(o_uni + !k);
    incr k
  done;
  let v = ref 0 in
  while !ok && !v < nv do
    ok := Bitv.equal_words st.Ext_state.values.(!v) enc (o_val + 1 + (!v * nwk));
    incr v
  done;
  !ok

(* --- deciding C(v0) ---

   Decide C(v0) component by component, calling [f] on every consistent
   root label with its state assembled (several only for unstratified
   automata). The components are walked depth first over one mutable
   candidate: a trivial component adds its state when μ holds under the
   candidate so far; a cyclic one tries every labelling of its states
   (with each state, then without, in component order) and keeps those
   where μ agrees with the labelling under the completed candidate.

   μ sees the candidate only through the light of its read projection
   (every answer a light gives depends on the label only through enabled
   read edges), so a light is shared along the walk, and the light
   changes only when an added state labels a read edge. *)

let set_bit a k = a.(k / bpw) <- a.(k / bpw) lor (1 lsl (k mod bpw))
let clear_bit a k = a.(k / bpw) <- a.(k / bpw) land lnot (1 lsl (k mod bpw))
let has_bit a k = a.(k / bpw) land (1 lsl (k mod bpw)) <> 0

(* Add [q] to the candidate; the light of the new projection. *)
let enter ctx st q l =
  set_bit ctx.cand q;
  if ctx.is_read.(q) then begin
    set_bit ctx.proj q;
    light_of ctx st
  end
  else l

let leave ctx q =
  clear_bit ctx.cand q;
  if ctx.is_read.(q) then clear_bit ctx.proj q

let holds ctx st l label q = eval_form ctx st l label ctx.m.Bip.mu.(q)

let rec walk ctx st label f l ci =
  if ci = Array.length ctx.comps then begin
    assemble ctx st l;
    f ()
  end
  else if not ctx.cyclic.(ci) then begin
    let q = ctx.comps.(ci).(0) in
    if holds ctx st l label q then begin
      walk ctx st label f (enter ctx st q l) (ci + 1);
      leave ctx q
    end
    else walk ctx st label f l (ci + 1)
  end
  else assign ctx st label f l ci 0

and assign ctx st label f l ci p =
  let comp = ctx.comps.(ci) in
  if p = Array.length comp then begin
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length comp do
      let q = comp.(!i) in
      ok := holds ctx st l label q = has_bit ctx.cand q;
      incr i
    done;
    if !ok then walk ctx st label f l (ci + 1)
  end
  else begin
    let q = comp.(p) in
    assign ctx st label f (enter ctx st q l) ci (p + 1);
    leave ctx q;
    assign ctx st label f l ci (p + 1)
  end

let apply ctx st label f =
  fill ctx.cand 0 ctx.nwq 0;
  fill ctx.proj 0 ctx.nwq 0;
  walk ctx st label f (light_of ctx st) 0

(* --- steps --- *)

(* Reset the ctx's step for [n_classes] classes over [children]. The
   many base is a function of the children alone; a step over the same
   children array as the last one keeps it. *)
let prepare ?t0 ?dup_cap ctx children n_classes =
  let st = ctx.st and nwk = ctx.nwk in
  st.t0 <- (match t0 with Some t -> t | None -> Bounds.paper_t0 ctx.m);
  st.dup_cap <- dup_cap;
  st.n_classes <- n_classes;
  st.n_lights <- 0;
  if Array.length st.bases < n_classes * nwk then begin
    let n = max (n_classes * nwk) (2 * Array.length st.bases) in
    st.bases <- Array.make n 0;
    ctx.cv <- Array.make n 0;
    ctx.order <- Array.make n 0;
    ctx.keep <- Array.make n 0;
    ctx.card <- Array.make n 0;
    ctx.mand <- Array.make n 0
  end;
  if children != st.children then begin
    st.children <- children;
    Bitv.blit_words (many_base ctx ~children) st.manyb 0
  end;
  st

let set_initial ctx st =
  set_bit st.bases ctx.m.Bip.pf.Pathfinder.initial

let step ?t0 ?dup_cap ctx children (classes : Merging.t) =
  let st = prepare ?t0 ?dup_cap ctx children (List.length classes) in
  let nwk = ctx.nwk in
  List.iteri
    (fun c (kl : Merging.klass) ->
      fill st.bases (c * nwk) nwk 0;
      if kl.Merging.has_root then set_initial ctx st;
      List.iter
        (fun (i, v) ->
          let su =
            Pathfinder.step_up_m ctx.memo children.(i).Ext_state.values.(v)
          in
          let b = Bitv.of_words ctx.kc st.bases (c * nwk) in
          Bitv.blit_words (Bitv.union b su) st.bases (c * nwk))
        kl.Merging.members)
    classes;
  st

let step_of_enum ?t0 ?dup_cap ctx children enum =
  let st = prepare ?t0 ?dup_cap ctx children (Merging.n_classes enum) in
  for c = 0 to st.n_classes - 1 do
    Merging.class_words enum c st.bases (c * ctx.nwk)
  done;
  set_initial ctx st;
  st

let results ctx st label =
  let out = ref [] in
  apply ctx st label (fun () -> out := result ctx :: !out);
  List.rev !out
(* Distinct c0 give distinct states; no dedup needed. *)

let combine ?t0 ?dup_cap ctx label children classes =
  results ctx (step ?t0 ?dup_cap ctx children classes) label

let leaf ?t0 ?dup_cap ctx label =
  combine ?t0 ?dup_cap ctx label [||]
    [ { Merging.has_root = true; members = [] } ]
