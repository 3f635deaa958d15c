module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder
module Label = Xpds_datatree.Label
module Data_tree = Xpds_datatree.Data_tree

type outcome =
  | Nonempty of Data_tree.t
  | Empty
  | Bounded_empty
  | Resource_limit of string

type stats = {
  n_states : int;
  n_transitions : int;
  n_mergings : int;
  max_height_reached : int;
  n_replayed : int;
  n_fresh_keys : int;
  n_applied : int;
}

type answer = {
  outcome : outcome;
  stats : stats;
  basis : Ext_state.t array option;
}

type height_cap = int

let theorem6_cap = Xpds_xpath.Fragment.poly_depth_bound

type config = {
  bounds : Bounds.t;
  max_height : height_cap option;
  max_states : int;
  max_transitions : int;
  should_stop : (unit -> bool) option;
}

let default_config =
  {
    bounds = Bounds.paper;
    max_height = None;
    max_states = 20_000;
    max_transitions = 200_000;
    should_stop = None;
  }

type prov =
  | PLeaf of Label.t * int array  (** label, class_values *)
  | PNode of Label.t * int array * Merging.t * int array
      (** label, children ids, merging, class_values *)

exception Limit of string
exception Found of int

let deadline_exceeded = "deadline exceeded"

(* Cooperative cancellation: polled at every transition application and
   every 256 merging enumerations, so a deadline is noticed within one
   transition's work. *)
let poll_stop cfg =
  match cfg.should_stop with
  | Some stop when stop () -> raise (Limit deadline_exceeded)
  | _ -> ()

(* The transition memo (DESIGN.md: Transition memo): children
   projections interned to ids, and per (projection id, merging key) the
   state ids the transition's results resolved to. The keys are interned
   in a [Wordtbl] straight from the enumeration's key buffer. *)
module ProjTbl = Hashtbl.Make (struct
  type t = Transition.projection

  let equal = Transition.projection_equal
  let hash = Transition.projection_hash
end)

type search = {
  ctx : Transition.ctx;
  memo : Pathfinder.memo;
  cfg : config;
  ids : Wordtbl.t;
      (** the states by {!Transition.result_hash}, ids in admission
          order; the states themselves are the keys ([states]) *)
  is_state : int -> bool;
      (** whether state [id] is the result [Transition.apply] is calling
          back for: made once, so a lookup allocates nothing *)
  mutable states : Ext_state.t array;
  mutable provs : prov array;
  mutable heights : int array;
  mutable val_su : Bitv.t array array;
      (** per state id, per described value: step-up of its reach set —
          computed once at discovery instead of per combo × merging *)
  mutable visible : int array array;
      (** per state id: the value indices with a nonempty step-up, i.e.
          the items a merging partitions (ascending) *)
  mutable count : int;
  mutable transitions : int;
  mutable mergings : int;
  final : Bitv.t;
  enum : Merging.enum;  (** the round's merging scratch *)
  (* the transition memo *)
  projs : int ProjTbl.t;  (** children projection -> projection id *)
  replay_keys : Wordtbl.t;  (** (projection id, merging key) -> entry id *)
  mutable replays : int array array;
      (** per entry id: per label, the ids its results resolved to:
          [e.(l) .. e.(l+1) - 1] index label [l]'s ids *)
  mutable replayed : int;
  mutable fresh_keys : int;
  mutable applied : int;
  mutable ebuf : int array;  (** the entry [apply_merging] is writing *)
}

(* Register the new state [state] under id [s.count]. Raises [Found]
   on an accepting state. *)
let register s state prov height =
  let id = s.count in
  if id >= Array.length s.states then begin
    let cap = max 64 (2 * Array.length s.states) in
    let states' = Array.make cap state in
    Array.blit s.states 0 states' 0 id;
    s.states <- states';
    let provs' = Array.make cap prov in
    Array.blit s.provs 0 provs' 0 id;
    s.provs <- provs';
    let heights' = Array.make cap max_int in
    Array.blit s.heights 0 heights' 0 id;
    s.heights <- heights';
    let val_su' = Array.make cap [||] in
    Array.blit s.val_su 0 val_su' 0 id;
    s.val_su <- val_su';
    let visible' = Array.make cap [||] in
    Array.blit s.visible 0 visible' 0 id;
    s.visible <- visible'
  end;
  s.states.(id) <- state;
  Ext_state.set_tag state id;
  s.provs.(id) <- prov;
  s.heights.(id) <- height;
  (* Step-ups of the described values, once per state: every combo the
     state joins reuses them for items and merging keys. *)
  let sus =
    Array.map
      (fun desc -> Pathfinder.step_up_m s.memo desc)
      state.Ext_state.values
  in
  s.val_su.(id) <- sus;
  let vis = ref [] in
  for v = Array.length sus - 1 downto 0 do
    if not (Bitv.is_empty sus.(v)) then vis := v :: !vis
  done;
  s.visible.(id) <- Array.of_list !vis;
  s.count <- id + 1;
  if Ext_state.accepting state s.final then raise (Found id);
  id

(* Admit the transition result [Transition.apply] is calling back for,
   at [height]; returns the id it resolved to. A known state is found by
   its encoding and only has its height lowered; a new one is
   materialized, with the provenance of [label] over [combo] (a leaf
   when empty) under [merging], the enumeration's current merging, made
   once for all the states it yields. *)
let admit s ~height ~label ~combo ~merging =
  let h = Transition.result_hash s.ctx in
  let id = Wordtbl.find_with s.ids h s.is_state in
  if id >= 0 then begin
    if height < s.heights.(id) then s.heights.(id) <- height;
    id
  end
  else begin
    if s.count >= s.cfg.max_states then raise (Limit "state budget");
    let r = Transition.result s.ctx in
    let prov =
      if Array.length combo = 0 then PLeaf (label, r.Transition.class_values)
      else
        PNode (label, combo, Lazy.force merging, r.Transition.class_values)
    in
    ignore (Wordtbl.add s.ids [||] 0 0 h);
    register s r.Transition.state prov height
  end

(* Non-decreasing id sequences of length [w] over [0..n], containing at
   least one id from [fresh] (a predicate). *)
let iter_combos ~n ~w ~is_fresh f =
  let combo = Array.make w 0 in
  let rec go pos lo has_fresh =
    if pos = w then begin
      if has_fresh then f (Array.copy combo)
    end
    else
      for id = lo to n do
        combo.(pos) <- id;
        go (pos + 1) id (has_fresh || is_fresh id)
      done
  in
  if w > 0 then go 0 0 false

let bump_transitions s =
  poll_stop s.cfg;
  s.transitions <- s.transitions + 1;
  if s.transitions > s.cfg.max_transitions then
    raise (Limit "transition budget")

(* The merging kernel. A combo's items are the visible values of its
   children, child by child (as [Merging.push] requires), each with its
   step-up (precomputed at state discovery). With at most t0 classes,
   the resulting state depends on a merging only through the multiset
   of its classes' stepped-up bases (plus the root flag), so
   [Merging.iter] walks the mergings, skipping swaps of a child's
   equal-vector values, which repeat a key — each merging walked counts
   against the budgets — and [Merging.fresh_key] picks the first of
   each key, in enumeration order, as the one to apply. With more
   classes, the t0 truncation breaks ties by class index and mergings
   sharing a key may differ; applying only the first is a deliberate
   approximation, and such a search is bounded ([unsat_bounded])
   anyway. *)
let load_combo enum ~k_card ~val_su ~visible combo =
  Merging.clear enum ~width:k_card;
  for i = 0 to Array.length combo - 1 do
    let id = combo.(i) in
    let su = val_su.(id) in
    Array.iter (fun v -> Merging.push enum i v su.(v)) visible.(id)
  done

(* Replay a memo entry: the transitions count and poll as if applied,
   and each result lands on the id it resolved to when the entry was
   written — by then it was admitted or a duplicate, so
   [admit]'s duplicate branch is all a recompute would run. *)
let replay_entry s ~height ~n_labels e =
  for l = 0 to n_labels - 1 do
    bump_transitions s;
    s.replayed <- s.replayed + 1;
    for j = e.(l) to e.(l + 1) - 1 do
      let id = e.(j) in
      if height < s.heights.(id) then s.heights.(id) <- height
    done
  done

let push_id s pos id =
  if pos >= Array.length s.ebuf then begin
    let b = Array.make (2 * (pos + 1)) 0 in
    Array.blit s.ebuf 0 b 0 (Array.length s.ebuf);
    s.ebuf <- b
  end;
  s.ebuf.(pos) <- id

(* Apply the enumeration's current merging (a fresh key) to every label,
   in order, through one transition step, and record memo entry
   [entry] once every result is admitted (a [Found] or [Limit] ends the
   search first). *)
let apply_merging s ~labels ~n_labels ~height ~combo ~children entry =
  let b = s.cfg.bounds in
  (* One step for every label: its lights do not depend on the label. *)
  let st =
    Transition.step_of_enum ?t0:b.Bounds.t0 ?dup_cap:b.dup_cap s.ctx children
      s.enum
  in
  let pos = ref (n_labels + 1) in
  let merging = lazy (Merging.current s.enum) in
  List.iteri
    (fun l label ->
      bump_transitions s;
      s.applied <- s.applied + 1;
      push_id s l !pos;
      Transition.apply s.ctx st label (fun () ->
          push_id s !pos (admit s ~height ~label ~combo ~merging);
          incr pos))
    labels;
  push_id s n_labels !pos;
  if entry >= Array.length s.replays then begin
    let r = Array.make (max 64 (2 * entry)) [||] in
    Array.blit s.replays 0 r 0 (Array.length s.replays);
    s.replays <- r
  end;
  s.replays.(entry) <- Array.sub s.ebuf 0 !pos

let projection_id s children =
  let p = Transition.projection s.ctx children in
  match ProjTbl.find_opt s.projs p with
  | Some id -> id
  | None ->
    let id = ProjTbl.length s.projs in
    ProjTbl.add s.projs p id;
    id

(* One saturation round: apply every unseen transition whose children
   include at least one state discovered in the previous round. A
   transition whose children projection and merging key were already
   applied in this search is replayed from the memo instead. Returns
   whether new states appeared. *)
let round s ~labels ~width ~height ~fresh_from =
  let cfg = s.cfg in
  let start = s.count in
  let n = start - 1 in
  let is_fresh id = id >= fresh_from in
  let m = Transition.bip_of s.ctx in
  let k_card = m.Bip.pf.Pathfinder.n_states in
  let t0 =
    match cfg.bounds.t0 with Some t -> t | None -> Bounds.paper_t0 m
  in
  let n_labels = List.length labels in
  for w = 1 to width do
    iter_combos ~n ~w ~is_fresh (fun combo ->
        let children = Array.map (fun id -> s.states.(id)) combo in
        let proj = ref (-1) in
        load_combo s.enum ~k_card ~val_su:s.val_su ~visible:s.visible combo;
        Merging.iter ?budget:cfg.bounds.merge_budget s.enum (fun enum ->
            s.mergings <- s.mergings + 1;
            (* The mergings walked can dwarf the committed transitions;
               charge them against the same budget so a stall is
               reported as a resource limit rather than an unbounded
               crawl. *)
            if s.mergings > 20 * s.cfg.max_transitions then
              raise (Limit "merging budget");
            if s.mergings land 255 = 0 then poll_stop s.cfg;
            if Merging.fresh_key enum then begin
              s.fresh_keys <- s.fresh_keys + 1;
              if !proj < 0 then proj := projection_id s children;
              let n = Wordtbl.length s.replay_keys in
              let entry =
                Merging.intern_transition_key enum ~t0 ~tag:!proj
                  s.replay_keys
              in
              if entry < n then
                replay_entry s ~height ~n_labels s.replays.(entry)
              else
                apply_merging s ~labels ~n_labels ~height ~combo ~children
                  entry
            end))
  done;
  s.count > start

(* --- witness reconstruction --- *)

let build_witness s id0 =
  let fresh = ref 0 in
  let next_fresh () =
    let d = !fresh in
    incr fresh;
    d
  in
  (* Returns the tree and the datum realizing each described value. *)
  let rec build id : Data_tree.t * int array =
    let state = s.states.(id) in
    let n_values = Array.length state.Ext_state.values in
    match s.provs.(id) with
    | PLeaf (label, class_values) ->
      let d = next_fresh () in
      let value_datum = Array.make n_values d in
      ignore class_values;
      (Data_tree.make label d [], value_datum)
    | PNode (label, children_ids, merging, class_values) ->
      let built = Array.map build children_ids in
      let n_classes = List.length merging in
      let class_datum = Array.init n_classes (fun _ -> next_fresh ()) in
      (* Rename each child's data: described values that belong to a
         class take the class datum; everything else keeps its (globally
         fresh) datum. *)
      let renaming = Array.make (Array.length children_ids) [] in
      List.iteri
        (fun e (kl : Merging.klass) ->
          List.iter
            (fun (i, v) ->
              let _, vdata = built.(i) in
              renaming.(i) <- (vdata.(v), class_datum.(e)) :: renaming.(i))
            kl.Merging.members)
        merging;
      let children =
        Array.to_list
          (Array.mapi
             (fun i (tree, _) ->
               let map = renaming.(i) in
               Data_tree.map_data
                 (fun d ->
                   match List.assoc_opt d map with
                   | Some d' -> d'
                   | None -> d)
                 tree)
             built)
      in
      let root_datum = class_datum.(0) in
      let value_datum = Array.make n_values (-1) in
      Array.iteri
        (fun e j -> if j >= 0 then value_datum.(j) <- class_datum.(e))
        class_values;
      (Data_tree.make label root_datum children, value_datum)
  in
  fst (build id0)

(* --- data-free union closure ---

   When every data atom of μ is a diagonal equality ∃(k,k)= (which is how
   Theorem 3 renders ⟨α⟩; genuine data tests produce off-diagonal or ≠
   atoms), the atom only asks whether k is reachable at the root — data
   values are irrelevant, no merging is needed, and the extended state
   collapses to (C, reachable-K). A parent then sees its children only
   through the union of their step-ups (and the counts of the counted
   states), so the multisets of children collapse to their observables,
   which are the closure of the empty one under adding one more pool
   member. Saturating that closure is exact at any branching: the
   horizontal-language argument for bottom-up automata, applied to the
   data-free rows of Fig. 4 (XPath(↓), XPath(↓∗), XPath(↓,↓∗)). *)

let data_free (m : Bip.t) =
  let rec free = function
    | Bip.FEx (k1, k2, Xpds_xpath.Ast.Eq) -> k1 = k2
    | Bip.FEx (_, _, Xpds_xpath.Ast.Neq) -> false
    | Bip.FNot f -> free f
    | Bip.FAnd (f, g) | Bip.FOr (f, g) -> free f && free g
    | Bip.FTrue | Bip.FFalse | Bip.FLab _ | Bip.FCountGe _ | Bip.FCountZero _
    | Bip.FCountLt _ ->
      true
  in
  Array.for_all free m.Bip.mu

(* What a parent observes of a multiset of children: the union of their
   step-ups and, per counted state, how many children carry it, capped
   at the largest bound a counting atom compares that count with. A
   single child's observable is its key in the pool, and adding a child
   to a multiset adds the two observables. *)
module DfTbl = Hashtbl.Make (struct
  type t = Bitv.t * int array

  let equal (u1, c1) (u2, c2) = Bitv.equal u1 u2 && c1 = c2
  let hash (u, c) =
    ((Bitv.hash u * 0x9E3779B1) lxor Hashtbl.hash c) land max_int
end)

(* Per state of [m], the largest bound a counting atom compares its
   count with (1 for [#q = 0]); 0 for a state no atom counts. *)
let count_caps (m : Bip.t) =
  let cap = Array.make m.Bip.q_card 0 in
  Array.iter
    (Bip.fold_form
       (fun () -> function
         | Bip.FCountGe (q, n) | Bip.FCountLt (q, n) ->
           cap.(q) <- max cap.(q) n
         | Bip.FCountZero q -> cap.(q) <- max cap.(q) 1
         | _ -> ())
       ())
    m.Bip.mu;
  cap

exception Df_found of Data_tree.t

type 'a grow = { mutable items : 'a array; mutable len : int }

let push g x =
  if g.len = Array.length g.items then begin
    let items = Array.make (max 16 (2 * g.len)) x in
    Array.blit g.items 0 items 0 g.len;
    g.items <- items
  end;
  g.items.(g.len) <- x;
  g.len <- g.len + 1

let check_data_free ~config (m : Bip.t) =
  let pf = m.Bip.pf in
  let memo = Pathfinder.memo pf in
  let components = Bip.sccs m in
  let deps = Bip.dependencies m in
  let labels = m.Bip.labels in
  let cap = count_caps m in
  let counted =
    List.init m.Bip.q_card Fun.id
    |> List.filter (fun q -> cap.(q) > 0)
    |> Array.of_list
  in
  let caps = Array.map (fun q -> cap.(q)) counted in
  let slot = Array.make m.Bip.q_card (-1) in
  Array.iteri (fun i q -> slot.(q) <- i) counted;
  (* The (C, reach) states of a node labelled [label] whose children
     show the observable [(u, cnt)]: μ with reach-set semantics, SCC by
     SCC. *)
  let states_of (u, cnt) label =
    let base = Bitv.add pf.Pathfinder.initial u in
    let count q = if slot.(q) < 0 then 0 else cnt.(slot.(q)) in
    let rec eval c0 reach = function
      | Bip.FTrue -> true
      | Bip.FFalse -> false
      | Bip.FLab a -> Label.equal a label
      | Bip.FNot f -> not (eval c0 reach f)
      | Bip.FAnd (f, g) -> eval c0 reach f && eval c0 reach g
      | Bip.FOr (f, g) -> eval c0 reach f || eval c0 reach g
      | Bip.FEx (k, _, _) -> Bitv.mem k (Lazy.force reach)
      | Bip.FCountGe (q, n) -> count q >= n
      | Bip.FCountZero q -> count q = 0
      | Bip.FCountLt (q, n) -> count q < n
    in
    let step c0s component =
      List.concat_map
        (fun c0 ->
          let reach = lazy (Pathfinder.closure_m memo ~label:c0 base) in
          match component with
          | [ q ] when not (Bitv.mem q deps.(q)) ->
            if eval c0 reach m.Bip.mu.(q) then [ Bitv.add q c0 ] else [ c0 ]
          | comp ->
            let rec assign chosen = function
              | [] ->
                let cand =
                  List.fold_left (fun acc q -> Bitv.add q acc) c0 chosen
                in
                let reach =
                  lazy (Pathfinder.closure_m memo ~label:cand base)
                in
                if
                  List.for_all
                    (fun q ->
                      eval cand reach m.Bip.mu.(q) = List.mem q chosen)
                    comp
                then [ cand ]
                else []
              | q :: rest -> assign (q :: chosen) rest @ assign chosen rest
            in
            assign [] comp)
        c0s
    in
    List.map
      (fun c0 -> (c0, Pathfinder.closure_m memo ~label:c0 base))
      (List.fold_left step [ Bitv.empty m.Bip.q_card ] components)
  in
  (* The pool: one entry per key, with the production (label and
     children observable) that first reached it. The observables: each
     with the observable it extends and the pool member it adds. *)
  let pool_ids = DfTbl.create 16 in
  let pool = { items = [||]; len = 0 } in
  let obs_ids = DfTbl.create 16 in
  let obs = { items = [||]; len = 0 } in
  let transitions = ref 0 in
  let extensions = ref 0 in
  let stats height =
    {
      n_states = pool.len;
      n_transitions = !transitions;
      n_mergings = 0;
      max_height_reached = height;
      n_replayed = 0;
      n_fresh_keys = 0;
      n_applied = 0;
    }
  in
  let rec children o acc =
    let _, prev, child = obs.items.(o) in
    if prev < 0 then acc else children prev (tree child :: acc)
  and tree p =
    let _, label, o = pool.items.(p) in
    Data_tree.make label 0 (children o [])
  in
  (* Every label's transitions from the new observable [o]. Acceptance
     is a property of the production (C depends on the label), so it is
     tested before the key dedup. *)
  let transit o =
    let key, _, _ = obs.items.(o) in
    List.iter
      (fun label ->
        poll_stop config;
        incr transitions;
        if !transitions > config.max_transitions then
          raise (Limit "transition budget");
        List.iter
          (fun (c0, reach) ->
            if not (Bitv.disjoint c0 m.Bip.final) then
              raise (Df_found (Data_tree.make label 0 (children o [])));
            let pkey =
              ( Pathfinder.step_up_m memo reach,
                Array.map (fun q -> if Bitv.mem q c0 then 1 else 0) counted )
            in
            if not (DfTbl.mem pool_ids pkey) then begin
              if pool.len >= config.max_states then
                raise (Limit "state budget");
              DfTbl.add pool_ids pkey pool.len;
              push pool (pkey, label, o)
            end)
          (states_of key label))
      labels
  in
  let add_obs key prev child =
    if not (DfTbl.mem obs_ids key) then begin
      DfTbl.add obs_ids key obs.len;
      push obs (key, prev, child);
      transit (obs.len - 1)
    end
  in
  let extend o p =
    incr extensions;
    if !extensions land 255 = 0 then poll_stop config;
    let (u, cnt), _, _ = obs.items.(o) in
    let (su, one), _, _ = pool.items.(p) in
    add_obs
      ( Bitv.union u su,
        Array.mapi (fun i c -> min caps.(i) (c + one.(i))) cnt )
      o p
  in
  (* Round [h] combines the pool members found in round [h - 1] with
     every known observable, then closes the new observables under the
     whole pool; the new observables' transitions are round [h]'s
     members. Returns the last round that found one. *)
  let rec saturate h fresh_from =
    let pool_end = pool.len in
    if fresh_from = pool_end then h - 2
    else begin
      let known = obs.len in
      for o = 0 to known - 1 do
        for p = fresh_from to pool_end - 1 do
          extend o p
        done
      done;
      let o = ref known in
      while !o < obs.len do
        for p = 0 to pool_end - 1 do
          extend !o p
        done;
        incr o
      done;
      saturate (h + 1) pool_end
    end
  in
  try
    (* The leaves: the transitions of the empty observable. *)
    add_obs
      (Bitv.empty pf.Pathfinder.n_states, Array.map (fun _ -> 0) counted)
      (-1) (-1);
    (Empty, stats (saturate 2 0))
  with
  | Df_found w -> (Nonempty w, stats 0)
  | Limit what -> (Resource_limit what, stats 0)

(* --- main entry (general engine) --- *)

(* [want_basis] additionally returns the saturated set of extended
   states when the fixpoint terminated by genuine saturation (not by the
   height cap): that set is an inductive invariant — leaves land in it,
   transitions from it stay in it, and no member is accepting — i.e. an
   UNSAT certificate checkable by an independent verifier (lib/cert).
   Certificate runs keep the full K×K atom matrices (the identity pair
   index, [project_pairs:false]): the projected pair space is an
   engine-internal state-space optimization the naive checker
   deliberately knows nothing about. *)
let check_full config ~want_basis (m : Bip.t) =
  let ctx = Transition.make_ctx ~project_pairs:(not want_basis) m in
  let bounds = config.bounds in
  let width = Bounds.width m bounds in
  let rec s =
    {
      ctx;
      memo = Transition.memo_of ctx;
      cfg = config;
      ids = Wordtbl.create 8;
      is_state = (fun id -> Transition.is_result ctx s.states.(id));
      states = [||];
      provs = [||];
      heights = [||];
      val_su = [||];
      visible = [||];
      count = 0;
      transitions = 0;
      mergings = 0;
      final = m.Bip.final;
      enum = Merging.create ();
      projs = ProjTbl.create 16;
      replay_keys = Wordtbl.create 8;
      replays = [||];
      replayed = 0;
      fresh_keys = 0;
      applied = 0;
      ebuf = [||];
    }
  in
  let stats height =
    {
      n_states = s.count;
      n_transitions = s.transitions;
      n_mergings = s.mergings;
      max_height_reached = height;
      n_replayed = s.replayed;
      n_fresh_keys = s.fresh_keys;
      n_applied = s.applied;
    }
  in
  let labels = m.Bip.labels in
  try
    (* Height 1: leaves, one step for every label. *)
    let root_only = [ { Merging.has_root = true; members = [] } ] in
    let leaf =
      Transition.step ?t0:bounds.t0 ?dup_cap:bounds.dup_cap ctx [||]
        root_only
    in
    let leaf_merging = Lazy.from_val root_only in
    List.iter
      (fun label ->
        bump_transitions s;
        Transition.apply ctx leaf label (fun () ->
            ignore (admit s ~height:1 ~label ~combo:[||] ~merging:leaf_merging)))
      labels;
    let max_h =
      match config.max_height with Some h -> h | None -> max_int
    in
    (* Returns (last height, true if we stopped because of the height
       cap rather than saturation). *)
    let rec saturate height fresh_from =
      if height > max_h then (height - 1, true)
      else begin
        let prev_count = s.count in
        if round s ~labels ~width ~height ~fresh_from then
          saturate (height + 1) prev_count
        else (height - 1, false)
      end
    in
    let reached, height_capped = saturate 2 0 in
    (* The one completeness rule: saturation proves emptiness when the
       bounds meet the paper's. A height cap is the fragment's Theorem-6
       depth bound, so a capped saturation is as exact as a full one. *)
    let outcome =
      if Bounds.paper_complete m bounds then Empty else Bounded_empty
    in
    (* Only a genuinely saturated set is inductive: a height-capped
       search may still have undiscovered states one level up. *)
    let basis =
      if want_basis && not height_capped then
        Some (Array.sub s.states 0 s.count)
      else None
    in
    { outcome; stats = stats reached; basis }
  with
  | Found id ->
    let witness = build_witness s id in
    { outcome = Nonempty witness; stats = stats s.heights.(id); basis = None }
  | Limit what ->
    { outcome = Resource_limit what; stats = stats 0; basis = None }

let check ?(config = default_config) ?(basis = false) (m : Bip.t) =
  (* Certificate runs always take the general engine: the data-free
     union closure's collapsed (C, reach) states are not the
     certificate's state form. *)
  if basis || not (data_free m) then check_full config ~want_basis:basis m
  else
    let outcome, stats = check_data_free ~config m in
    { outcome; stats; basis = None }
