type 'a letter = Test of 'a | Down

type 'a t = {
  n_states : int;
  initials : Bitv.t;
  finals : Bitv.t;
  edges : (int * 'a letter * int) list;
}

type ('p, 'a) step =
  | Self
  | Child
  | Descendant
  | Seq of 'p * 'p
  | Union of 'p * 'p
  | Filter of 'p * 'a
  | Guard of 'a * 'p
  | Star of 'p

(* Thompson-style construction with ε-edges, then ε-elimination. *)
type 'a builder = {
  mutable next : int;
  mutable eps : (int * int) list;
  mutable labelled : (int * 'a letter * int) list;
}

let fresh b =
  let s = b.next in
  b.next <- s + 1;
  s

let add_eps b s t = b.eps <- (s, t) :: b.eps
let add_edge b s l t = b.labelled <- (s, l, t) :: b.labelled

(* Returns (entry, exit) of a fragment recognizing word(α). *)
let rec thompson view b p =
  match view p with
  | Self ->
    let s = fresh b in
    (s, s)
  | Child ->
    let s = fresh b and e = fresh b in
    add_edge b s Down e;
    (s, e)
  | Descendant ->
    let s = fresh b in
    add_edge b s Down s;
    (s, s)
  | Seq (p, q) ->
    let s1, e1 = thompson view b p in
    let s2, e2 = thompson view b q in
    add_eps b e1 s2;
    (s1, e2)
  | Union (p, q) ->
    let s = fresh b and e = fresh b in
    let s1, e1 = thompson view b p in
    let s2, e2 = thompson view b q in
    add_eps b s s1;
    add_eps b s s2;
    add_eps b e1 e;
    add_eps b e2 e;
    (s, e)
  | Filter (p, phi) ->
    let s1, e1 = thompson view b p in
    let e = fresh b in
    add_edge b e1 (Test phi) e;
    (s1, e)
  | Guard (phi, p) ->
    let s = fresh b in
    let s1, e1 = thompson view b p in
    add_edge b s (Test phi) s1;
    (s, e1)
  | Star p ->
    let s = fresh b in
    let s1, e1 = thompson view b p in
    add_eps b s s1;
    add_eps b e1 s;
    (s, s)

let compile view p =
  let b = { next = 0; eps = []; labelled = [] } in
  let entry, exit = thompson view b p in
  let n = b.next in
  (* The ε-closures as one n×n bit matrix: bit [p·n + r] iff r is
     ε-reachable from p (p included). Without ε-edges (no Seq, Union or
     Star) every closure is a singleton. *)
  let stack = Array.make n 0 in
  let eps_to =
    if b.eps = [] then Int.equal
    else begin
      let succ = Array.make n [] in
      List.iter (fun (s, t) -> succ.(s) <- t :: succ.(s)) b.eps;
      let closure = Bitv.builder (n * n) in
      for p = 0 to n - 1 do
        let row = p * n in
        Bitv.add_in_place (row + p) closure;
        stack.(0) <- p;
        let sp = ref 1 in
        while !sp > 0 do
          decr sp;
          List.iter
            (fun t ->
              if not (Bitv.builder_mem (row + t) closure) then begin
                Bitv.add_in_place (row + t) closure;
                stack.(!sp) <- t;
                incr sp
              end)
            succ.(stack.(!sp))
        done
      done;
      fun p r -> Bitv.builder_mem ((p * n) + r) closure
    end
  in
  (* The ε-free automaton has p --l--> q whenever some r ∈ closure(p) has
     r --l--> q, and p is final iff exit ∈ closure(p). Each labelled edge
     is the only one of its kind into its target (every fragment's ↓ and
     test edges enter distinct states), so sorting them by (kind, target)
     orders the edges of each source totally, without duplicates. *)
  let key (_, l, q) = match l with Down -> q | Test _ -> n + q in
  let labelled =
    Array.of_list
      (List.sort (fun e1 e2 -> Int.compare (key e1) (key e2)) b.labelled)
  in
  (* Trim on the fly: keep the states reachable from [entry] (bit 1 of
     [mark]) and co-reachable to a final state (bit 2). *)
  let mark = Array.make n 0 in
  mark.(entry) <- 1;
  stack.(0) <- entry;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let p = stack.(!sp) in
    Array.iter
      (fun (r, _, q) ->
        if mark.(q) land 1 = 0 && eps_to p r then begin
          mark.(q) <- mark.(q) lor 1;
          stack.(!sp) <- q;
          incr sp
        end)
      labelled
  done;
  for p = 0 to n - 1 do
    if eps_to p exit then begin
      mark.(p) <- mark.(p) lor 2;
      stack.(!sp) <- p;
      incr sp
    end
  done;
  while !sp > 0 do
    decr sp;
    let q = stack.(!sp) in
    Array.iter
      (fun (r, _, q') ->
        if q' = q then
          for p = 0 to n - 1 do
            if mark.(p) land 2 = 0 && eps_to p r then begin
              mark.(p) <- mark.(p) lor 2;
              stack.(!sp) <- p;
              incr sp
            end
          done)
      labelled
  done;
  (* Renumber the kept states in order; [mark.(p)] becomes p's new number,
     or -1. *)
  let count = ref 0 in
  for p = 0 to n - 1 do
    if mark.(p) = 3 then begin
      mark.(p) <- !count;
      incr count
    end
    else mark.(p) <- -1
  done;
  let n' = !count in
  let edges = ref [] and finals = Bitv.builder n' in
  for p = n - 1 downto 0 do
    if mark.(p) >= 0 then begin
      if eps_to p exit then Bitv.add_in_place mark.(p) finals;
      for i = Array.length labelled - 1 downto 0 do
        let r, l, q = labelled.(i) in
        if mark.(q) >= 0 && eps_to p r then
          edges := (mark.(p), l, mark.(q)) :: !edges
      done
    end
  done;
  {
    n_states = n';
    initials =
      (if n' = 0 then Bitv.empty 0 else Bitv.singleton n' mark.(entry));
    finals = Bitv.freeze finals;
    edges = !edges;
  }

let of_path alpha =
  let open Xpds_xpath.Ast in
  compile
    (function
      | Axis Self -> Self
      | Axis Child -> Child
      | Axis Descendant -> Descendant
      | Seq (p, q) -> Seq (p, q)
      | Union (p, q) -> Union (p, q)
      | Filter (p, phi) -> Filter (p, phi)
      | Guard (phi, p) -> Guard (phi, p)
      | Star p -> Star p)
    alpha

let reverse a =
  {
    n_states = a.n_states;
    initials = a.finals;
    finals = a.initials;
    edges = List.map (fun (s, l, t) -> (t, l, s)) a.edges;
  }

let accepts a word =
  let step current pred =
    List.fold_left
      (fun acc (s, l, t) ->
        if Bitv.mem s current && pred l then Bitv.add t acc else acc)
      (Bitv.empty a.n_states) a.edges
  in
  let final = List.fold_left step a.initials word in
  not (Bitv.is_empty (Bitv.inter final a.finals))

let size a = a.n_states

let pp ppf a =
  Format.fprintf ppf "@[<v>nfa with %d states, init %a, final %a@," a.n_states
    Bitv.pp a.initials Bitv.pp a.finals;
  List.iter
    (fun (s, l, t) ->
      match l with
      | Down -> Format.fprintf ppf "%d --down--> %d@," s t
      | Test phi ->
        Format.fprintf ppf "%d --[%a]--> %d@," s Xpds_xpath.Pp.pp_node phi t)
    a.edges;
  Format.fprintf ppf "@]"
