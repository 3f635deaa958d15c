type t = {
  n_states : int;
  initial : int;
  q_card : int;
  up : int list array;
  read : int list array array;
  up_bits : Bitv.t array;
}

let create ~n_states ~initial ~q_card ~up ~read =
  let check_k k =
    if k < 0 || k >= n_states then
      invalid_arg (Printf.sprintf "Pathfinder.create: state %d" k)
  in
  let check_q q =
    if q < 0 || q >= q_card then
      invalid_arg (Printf.sprintf "Pathfinder.create: letter q%d" q)
  in
  check_k initial;
  let up_arr = Array.make n_states [] in
  List.iter
    (fun (k, k') ->
      check_k k;
      check_k k';
      up_arr.(k) <- k' :: up_arr.(k))
    up;
  (* The letters that no transition reads share one empty row. *)
  let no_reads = Array.make n_states [] in
  let read_arr = Array.make q_card no_reads in
  List.iter
    (fun (q, k, k') ->
      check_q q;
      check_k k;
      check_k k';
      if read_arr.(q) == no_reads then read_arr.(q) <- Array.make n_states [];
      read_arr.(q).(k) <- k' :: read_arr.(q).(k))
    read;
  let none = Bitv.empty n_states in
  let up_bits =
    Array.map
      (function [] -> none | targets -> Bitv.of_list n_states targets)
      up_arr
  in
  { n_states; initial; q_card; up = up_arr; read = read_arr; up_bits }

(* Push the targets of one transition list that [b] lacks. *)
let rec push_new b stack sp = function
  | [] -> ()
  | k' :: rest ->
    if not (Bitv.builder_mem k' b) then begin
      Bitv.add_in_place k' b;
      stack.(!sp) <- k';
      incr sp
    end;
    push_new b stack sp rest

let closure p ~label ks =
  (* Worklist fixpoint over the non-moving transitions enabled by the
     label, on a mutable builder: each state enters the worklist at most
     once, and membership tests / insertions are O(1) word operations. *)
  if Bitv.is_empty label || Bitv.is_empty ks then ks
  else begin
    let b = Bitv.builder_of ks in
    let stack = Array.make p.n_states 0 in
    let sp = ref 0 in
    Bitv.iter
      (fun k ->
        stack.(!sp) <- k;
        incr sp)
      ks;
    let k = ref 0 in
    let visit q = push_new b stack sp p.read.(q).(!k) in
    while !sp > 0 do
      decr sp;
      k := stack.(!sp);
      Bitv.iter visit label
    done;
    Bitv.freeze b
  end

let step_up p ks =
  let b = Bitv.builder p.n_states in
  Bitv.iter (fun k -> ignore (Bitv.union_into p.up_bits.(k) b)) ks;
  Bitv.freeze b

(* --- per-search memoization ------------------------------------------

   [closure] and [step_up] are pure functions of the pathfinder and
   their set arguments, and the emptiness fixpoint asks for the same
   (label, base) and step-up arguments over and over: every combo of
   child states recomputes the step-up of the same described values, and
   every candidate root label recomputes the same closures. A [memo]
   carries one hash table per operation, keyed on the argument sets
   (dedicated {!Bitv.hash} — not the polymorphic hash). Create one per
   search (it grows with the search and is not thread-safe). *)

module BvTbl = Hashtbl.Make (Bitv)

module BvPairTbl = Hashtbl.Make (struct
  type nonrec t = Bitv.t * Bitv.t

  let equal (a1, b1) (a2, b2) = Bitv.equal a1 a2 && Bitv.equal b1 b2
  let hash (a, b) = (Bitv.hash a * 0x9E3779B1) lxor Bitv.hash b
end)

type memo = {
  pf : t;
  closure_tbl : Bitv.t BvPairTbl.t;  (** (label, base) -> closure *)
  step_tbl : Bitv.t BvTbl.t;  (** ks -> step_up *)
}

let memo pf =
  { pf; closure_tbl = BvPairTbl.create 16; step_tbl = BvTbl.create 16 }

let closure_m m ~label ks =
  let key = (label, ks) in
  match BvPairTbl.find_opt m.closure_tbl key with
  | Some r -> r
  | None ->
    let r = closure m.pf ~label ks in
    BvPairTbl.add m.closure_tbl key r;
    r

let step_up_m m ks =
  match BvTbl.find_opt m.step_tbl ks with
  | Some r -> r
  | None ->
    let r = step_up m.pf ks in
    BvTbl.add m.step_tbl ks r;
    r

let pp ppf p =
  Format.fprintf ppf "@[<v>pathfinder: |K|=%d kI=%d |Q|=%d@," p.n_states
    p.initial p.q_card;
  Array.iteri
    (fun k targets ->
      List.iter (fun k' -> Format.fprintf ppf "k%d --up--> k%d@," k k')
        targets)
    p.up;
  Array.iteri
    (fun q per_k ->
      Array.iteri
        (fun k targets ->
          List.iter
            (fun k' -> Format.fprintf ppf "k%d --q%d--> k%d@," k q k')
            targets)
        per_k)
    p.read;
  Format.fprintf ppf "@]"
