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
}

type config = {
  width : int option;
  t0 : int option;
  dup_cap : int option;
  merge_budget : int option;
  max_height : int option;
  max_states : int;
  max_transitions : int;
  should_stop : (unit -> bool) option;
}

let default_config =
  {
    width = None;
    t0 = None;
    dup_cap = None;
    merge_budget = None;
    max_height = None;
    max_states = 20_000;
    max_transitions = 200_000;
    should_stop = None;
  }

let paper_width (m : Bip.t) =
  let k = m.pf.Pathfinder.n_states in
  ((2 * k * k) + k + 2) * k

module StateTbl = Hashtbl.Make (struct
  type t = Ext_state.t

  let equal = Ext_state.equal
  let hash = Ext_state.hash
end)

module BvTbl = Hashtbl.Make (Bitv)

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
   state ids the transition's results resolved to. *)
module ProjTbl = Hashtbl.Make (struct
  type t = Transition.projection

  let equal = Transition.projection_equal
  let hash = Transition.projection_hash
end)

module MemoTbl = Hashtbl.Make (struct
  type t = int * Merging.Key.t

  let equal (p1, k1) (p2, k2) = p1 = p2 && Merging.Key.equal k1 k2
  let hash (p, k) = ((Merging.Key.hash k * 0x01000193) lxor p) land max_int
end)

type search = {
  ctx : Transition.ctx;
  memo : Pathfinder.memo;
  cfg : config;
  ids : int StateTbl.t;
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
  replays : int array MemoTbl.t;
      (** (projection id, merging key) -> per label, the ids its results
          resolved to: [e.(l) .. e.(l+1) - 1] index label [l]'s ids *)
  mutable replayed : int;
}

(* Admit a transition result at [height]; returns the id it resolved
   to: its new id or an equal state's. Raises [Found] on an accepting
   state. *)
let add_state s state prov height =
  match StateTbl.find_opt s.ids state with
  | Some id ->
    if height < s.heights.(id) then s.heights.(id) <- height;
    id
  | None ->
    if s.count >= s.cfg.max_states then raise (Limit "state budget");
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
    StateTbl.add s.ids state id;
    if Ext_state.accepting state s.final then raise (Found id);
    id

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
   children, child by child, each with its step-up (precomputed at
   state discovery). With at most t0 classes, the resulting state
   depends on a merging only through the multiset of its classes'
   stepped-up bases (plus the root flag), so
   [Merging.iter] runs over every merging — each one counts against the
   budgets — and [Merging.fresh_key] picks the first of each key, in
   enumeration order, as the one to apply. With more classes, the t0
   truncation breaks ties by class index and mergings sharing a key may
   differ; applying only the first is a deliberate approximation, and
   such a search is bounded ([unsat_bounded]) anyway. *)
let load_combo enum ~k_card ~val_su ~visible combo =
  Merging.clear enum ~width:k_card;
  for i = 0 to Array.length combo - 1 do
    let id = combo.(i) in
    let su = val_su.(id) in
    Array.iter (fun v -> Merging.push enum i v su.(v)) visible.(id)
  done

(* The enumeration's current partition, materialized, and its class
   bases: the class unions the enumeration already holds, plus the
   initial state in the root class — what [Transition.combine] would
   otherwise recompute. *)
let distinct_merging enum ~initial =
  let bases =
    Array.init (Merging.n_classes enum) (fun c ->
        let b = Merging.class_union enum c in
        if c = 0 then Bitv.add initial b else b)
  in
  (Merging.current enum, bases)

(* Replay a memo entry: the transitions count and poll as if applied,
   and each result lands on the id it resolved to when the entry was
   written — by then it was admitted or a duplicate, so
   [add_state]'s duplicate branch is all a recompute would run. *)
let replay_entry s ~height ~n_labels e =
  for l = 0 to n_labels - 1 do
    bump_transitions s;
    s.replayed <- s.replayed + 1;
    for j = e.(l) to e.(l + 1) - 1 do
      let id = e.(j) in
      if height < s.heights.(id) then s.heights.(id) <- height
    done
  done

(* Apply a fresh merging to every label, in order, and record the entry
   once every result is admitted (a [Found] or [Limit] ends the search
   first). *)
let apply_merging s ~labels ~height ~combo ~children key =
  let cfg = s.cfg in
  let pf = (Transition.bip_of s.ctx).Bip.pf in
  let merging, bases =
    distinct_merging s.enum ~initial:pf.Pathfinder.initial
  in
  let ids =
    List.map
      (fun label ->
        bump_transitions s;
        List.map
          (fun (r : Transition.result) ->
            add_state s r.Transition.state
              (PNode (label, combo, merging, r.Transition.class_values))
              height)
          (Transition.combine ?t0:cfg.t0 ?dup_cap:cfg.dup_cap ~bases s.ctx
             label children merging))
      labels
  in
  let n_labels = List.length ids in
  let e =
    Array.make
      (n_labels + 1 + List.fold_left (fun n l -> n + List.length l) 0 ids)
      0
  in
  let pos = ref (n_labels + 1) in
  List.iteri
    (fun l label_ids ->
      e.(l) <- !pos;
      List.iter
        (fun id ->
          e.(!pos) <- id;
          incr pos)
        label_ids)
    ids;
  e.(n_labels) <- !pos;
  MemoTbl.add s.replays key e

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
  let t0 = match cfg.t0 with Some t -> t | None -> Transition.t0_default m in
  let n_labels = List.length labels in
  for w = 1 to width do
    iter_combos ~n ~w ~is_fresh (fun combo ->
        let children = Array.map (fun id -> s.states.(id)) combo in
        let proj = ref (-1) in
        load_combo s.enum ~k_card ~val_su:s.val_su ~visible:s.visible combo;
        Merging.iter ?budget:cfg.merge_budget s.enum (fun enum ->
            s.mergings <- s.mergings + 1;
            (* Merging enumeration can dwarf the committed transitions;
               charge it against the same budget so a stall is reported
               as a resource limit rather than an unbounded crawl. *)
            if s.mergings > 20 * s.cfg.max_transitions then
              raise (Limit "merging budget");
            if s.mergings land 255 = 0 then poll_stop s.cfg;
            if Merging.fresh_key enum then begin
              if !proj < 0 then proj := projection_id s children;
              let key = (!proj, Merging.transition_key enum ~t0) in
              match MemoTbl.find_opt s.replays key with
              | Some e -> replay_entry s ~height ~n_labels e
              | None ->
                apply_merging s ~labels ~height ~combo ~children key
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

(* --- data-free fast path ---

   When every data atom of μ is a diagonal equality ∃(k,k)= (which is how
   Theorem 3 renders ⟨α⟩; genuine data tests produce off-diagonal or ≠
   atoms), the atom only asks whether k is reachable at the root — data
   values are irrelevant, no merging is needed, and the extended state
   collapses to (C, reachable-K). This covers the data-free rows of
   Fig. 4 (XPath(↓), XPath(↓∗), XPath(↓,↓∗)) with classical tree-automaton
   performance. *)

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

module DfTbl = Hashtbl.Make (struct
  type t = Bitv.t * Bitv.t

  let equal (a1, b1) (a2, b2) = Bitv.equal a1 a2 && Bitv.equal b1 b2
  let hash (a, b) = ((Bitv.hash a * 0x9E3779B1) lxor Bitv.hash b) land max_int
end)

exception Df_found of Data_tree.t

let check_data_free ~config (m : Bip.t) =
  let pf = m.Bip.pf in
  let k_card = pf.Pathfinder.n_states in
  let memo = Pathfinder.memo pf in
  let components = Bip.sccs m in
  let deps = Bip.dependencies m in
  let labels = m.Bip.labels in
  (* Evaluate μ with reach-set semantics, SCC by SCC. *)
  let decide_c0 ~label ~(children : (Bitv.t * Bitv.t) list) =
    let base =
      let b = Bitv.builder k_card in
      Bitv.add_in_place pf.Pathfinder.initial b;
      List.iter
        (fun (_, n) ->
          ignore (Bitv.union_into (Pathfinder.step_up_m memo n) b))
        children;
      Bitv.freeze b
    in
    let rec eval c0 reach = function
      | Bip.FTrue -> true
      | Bip.FFalse -> false
      | Bip.FLab a -> Label.equal a label
      | Bip.FNot f -> not (eval c0 reach f)
      | Bip.FAnd (f, g) -> eval c0 reach f && eval c0 reach g
      | Bip.FOr (f, g) -> eval c0 reach f || eval c0 reach g
      | Bip.FEx (k, _, _) -> Bitv.mem k (Lazy.force reach)
      | Bip.FCountGe (q, n) ->
        List.length
          (List.filter (fun (c, _) -> Bitv.mem q c) children)
        >= n
      | Bip.FCountZero q ->
        List.for_all (fun (c, _) -> not (Bitv.mem q c)) children
      | Bip.FCountLt (q, n) ->
        List.length (List.filter (fun (c, _) -> Bitv.mem q c) children)
        < n
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
  let ids = DfTbl.create 16 in
  let states = ref [] in
  let count = ref 0 in
  let transitions = ref 0 in
  let provs : (Label.t * int array) list ref = ref [] in
  (* Without counting atoms a child influences the parent only through
     step_up(reach), so children can be deduplicated by that projection:
     combos then range over the (much fewer) distinct step-up values,
     with one representative state each for provenance. *)
  let counting = Transition.has_counting m in
  let su_tbl : unit BvTbl.t = BvTbl.create 16 in
  let su_reps = ref [] in
  let n_sus = ref 0 in
  let note_su id (_, n) =
    if not counting then begin
      let su = Pathfinder.step_up_m memo n in
      if not (BvTbl.mem su_tbl su) then begin
        BvTbl.add su_tbl su ();
        su_reps := id :: !su_reps;
        incr n_sus
      end
    end
  in
  let add label children_ids st =
    (* Acceptance is a property of this very production (C depends on the
       label), so test it before deduplication. *)
    if not (Bitv.is_empty (Bitv.inter (fst st) m.Bip.final)) then begin
      let provs = Array.of_list (List.rev !provs) in
      let rec build id =
        let label, kids = provs.(id) in
        Data_tree.make label 0 (Array.to_list (Array.map build kids))
      in
      let children =
        Array.to_list (Array.map build children_ids)
      in
      raise (Df_found (Data_tree.make label 0 children))
    end;
    (* Without counting atoms only the reach set is observable upward;
       key the state table on it alone. *)
    let key =
      if counting then st else (Bitv.empty m.Bip.q_card, snd st)
    in
    if not (DfTbl.mem ids key) then begin
      if !count >= config.max_states then raise (Limit "state budget");
      DfTbl.add ids key !count;
      states := st :: !states;
      provs := (label, children_ids) :: !provs;
      note_su !count st;
      incr count;
      true
    end
    else false
  in
  let width =
    match config.width with Some w -> w | None -> paper_width m
  in
  let max_h = match config.max_height with Some h -> h | None -> max_int in
  let stats height =
    {
      n_states = !count;
      n_transitions = !transitions;
      n_mergings = 0;
      max_height_reached = height;
      n_replayed = 0;
    }
  in
  try
    List.iter
      (fun label ->
        poll_stop config;
        incr transitions;
        List.iter
          (fun st -> ignore (add label [||] st))
          (decide_c0 ~label ~children:[]))
      labels;
    let all_states () = Array.of_list (List.rev !states) in
    (* Distinct combos frequently share the same step-up union, which —
       absent counting atoms — fully determines the transition; process
       one representative per union. *)
    let seen_unions : unit BvTbl.t = BvTbl.create 16 in
    let expand ~snapshot ~pool ~n ~fresh_from ~changed =
      for w = 1 to min width (n + 1) do
        iter_combos ~n ~w
          ~is_fresh:(fun i -> i >= fresh_from)
          (fun combo ->
            let ids = Array.map (fun i -> pool.(i)) combo in
            let children =
              Array.to_list (Array.map (fun id -> snapshot.(id)) ids)
            in
            let skip =
              (not counting)
              &&
              let u =
                let b = Bitv.builder k_card in
                List.iter
                  (fun (_, nset) ->
                    ignore
                      (Bitv.union_into (Pathfinder.step_up_m memo nset) b))
                  children;
                Bitv.freeze b
              in
              if BvTbl.mem seen_unions u then true
              else begin
                BvTbl.add seen_unions u ();
                false
              end
            in
            if not skip then
              List.iter
                (fun label ->
                  poll_stop config;
                  incr transitions;
                  if !transitions > config.max_transitions then
                    raise (Limit "transition budget");
                  List.iter
                    (fun st -> if add label ids st then changed := true)
                    (decide_c0 ~label ~children))
                labels)
      done
    in
    let rec saturate height fresh_pool_from =
      if height > max_h then (height - 1, true)
      else begin
        let snapshot = all_states () in
        let pool =
          if counting then Array.init (Array.length snapshot) Fun.id
          else Array.of_list (List.rev !su_reps)
        in
        let n = Array.length pool - 1 in
        let changed = ref false in
        expand ~snapshot ~pool ~n ~fresh_from:fresh_pool_from ~changed;
        if !changed then saturate (height + 1) (n + 1)
        else (height - 1, false)
      end
    in
    let reached, capped = saturate 2 0 in
    let paper_complete =
      match config.width with
      | Some w -> w >= paper_width m
      | None -> true
    in
    let outcome =
      if capped || not paper_complete then Bounded_empty else Empty
    in
    (outcome, stats reached)
  with
  | Df_found w -> (Nonempty w, stats 0)
  | Limit what -> (Resource_limit what, stats 0)

(* --- main entry (general engine) --- *)

(* [want_basis] additionally returns the saturated set of extended
   states when the fixpoint terminated by genuine saturation (not by the
   height cap): that set is an inductive invariant — leaves land in it,
   transitions from it stay in it, and no member is accepting — i.e. an
   UNSAT certificate checkable by an independent verifier (lib/cert).
   Certificate runs keep the full atom matrices ([project_pairs:false]):
   the pair-mask projection is an engine-internal state-space
   optimization the naive checker deliberately knows nothing about. *)
let check_full ?(config = default_config) ?(want_basis = false) (m : Bip.t) =
  let ctx = Transition.make_ctx ~project_pairs:(not want_basis) m in
  let width =
    match config.width with Some w -> w | None -> paper_width m
  in
  let paper_complete =
    (match config.width with Some w -> w >= paper_width m | None -> true)
    && (match config.t0 with
       | Some t -> t >= Transition.t0_default m
       | None -> true)
    && config.dup_cap = None
    && config.merge_budget = None
  in
  let s =
    {
      ctx;
      memo = Transition.memo_of ctx;
      cfg = config;
      ids = StateTbl.create 16;
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
      replays = MemoTbl.create 16;
      replayed = 0;
    }
  in
  let stats height =
    {
      n_states = s.count;
      n_transitions = s.transitions;
      n_mergings = s.mergings;
      max_height_reached = height;
      n_replayed = s.replayed;
    }
  in
  let labels = m.Bip.labels in
  try
    (* Height 1: leaves. *)
    List.iter
      (fun label ->
        bump_transitions s;
        List.iter
          (fun (r : Transition.result) ->
            ignore
              (add_state s r.Transition.state
                 (PLeaf (label, r.Transition.class_values))
                 1))
          (Transition.leaf ?t0:config.t0 ?dup_cap:config.dup_cap ctx label))
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
    let outcome =
      if height_capped || not paper_complete then Bounded_empty else Empty
    in
    let basis =
      (* Only a genuinely saturated set is inductive: a height-capped
         search may still have undiscovered states one level up. *)
      if want_basis && not height_capped then
        Some (Array.sub s.states 0 s.count)
      else None
    in
    ((outcome, stats reached), basis)
  with
  | Found id ->
    let witness = build_witness s id in
    ((Nonempty witness, stats s.heights.(id)), None)
  | Limit what -> ((Resource_limit what, stats 0), None)

let check_with_stats ?(config = default_config) (m : Bip.t) =
  if data_free m then check_data_free ~config m
  else fst (check_full ~config m)

let check_with_basis ?(config = default_config) (m : Bip.t) =
  (* Always the general engine: the data-free fast path's collapsed
     (C, reach) states are not the certificate's state form. *)
  let (outcome, stats), basis = check_full ~config ~want_basis:true m in
  (outcome, stats, basis)

let check ?config m = fst (check_with_stats ?config m)

let is_nonempty ?config m =
  match check ?config m with
  | Nonempty _ -> Some true
  | Empty -> Some false
  | Bounded_empty | Resource_limit _ -> None
