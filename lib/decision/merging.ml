type klass = { has_root : bool; members : (int * int) list }
type t = klass list

(* The emptiness round enumerates millions of mergings per solve, and a
   transition depends on a merging only through the multiset of its
   classes' (root flag, stepped-up base union) as long as it has at most
   t0 classes — most mergings repeat a key already seen for the same
   children. With more classes, the t0 truncation breaks ties between
   classes of equal reach size by class index, so two mergings with one
   key can yield different states; keeping the first of each key is
   then a deliberate approximation, covered by the bounded verdict
   (DESIGN.md: Transition memo). So the enumeration carries
   each class's union as raw words beside the partition: a join ORs the
   item's words into its class (saving the old words), a backtrack
   stores them back. The canonical key is then a flat [int array] built
   from those words, a transition reads its class bases from them
   ([class_words]), and the partition itself ([current]) is materialized
   only for provenance. All buffers live in one reusable [enum], so a
   combo whose partitions are all repeats allocates nothing.

   The walk is a restricted-growth enumeration: items are inserted left
   to right, each joining an existing class (at most one value per
   child a class) or opening a new one, which orders the partitions
   lexicographically by their class-index strings. The optional
   [budget] bounds the number of items involved in identifications: an
   item joining the root class costs 1, an item turning a singleton
   class into a pair costs 2 (both members are now merged), and an item
   joining a larger class costs 1. Items left in singleton classes are
   free, so a partition's cost does not depend on the insertion order.
   The paper's procedure has no such bound (budget None); the bound is
   a practical completeness knob (DESIGN.md §3).

   Symmetry pruning. Let [q]'s twin [p] be the nearest earlier item of
   the same child with an equal vector. Swapping [p] and [q] keeps the
   class unions, the class sizes (hence the cost) and the same-child
   constraint, so it maps a partition to one with the same key. The
   walk skips a partition when that swap gives one earlier in the
   order:
   - [p] joined an existing class i and [q] joins an existing class
     j < i;
   - [p] opened a class and [q] joins an existing one (items are pushed
     child by child, so every class [q] can join existed before [p]);
   - [p] opened a class, [q] opened a later one, and an item joins
     [q]'s class while [p]'s is still the singleton {p} — [q]'s class
     is locked until then.
   Each skipped partition has an earlier one with its key, so the first
   partition of every key is still walked, in the same order. Opening a
   class is never skipped, so every branch of the walk reaches a
   partition. *)

(* A key is length-prefixed: [k.(0) = n], payload [k.(1) .. k.(n)] — the
   number of classes, the root class's words, then the other classes'
   words in ascending order. The probe key is a longer scratch buffer;
   [seen] stores the payloads. *)
module Key = struct
  type t = int array

  let equal a b =
    let n = a.(0) in
    n = b.(0)
    &&
    let rec go i = i > n || (a.(i) = b.(i) && go (i + 1)) in
    go 1

  let hash a =
    let h = ref a.(0) in
    for i = 1 to a.(0) do
      h := (!h lxor a.(i)) * 0x01000193
    done;
    (!h lxor (!h lsr 29)) land max_int
end

type enum = {
  mutable width : int;  (** width of the items' vectors *)
  mutable nw : int;  (** words per vector *)
  mutable n : int;  (** items loaded *)
  mutable child : int array;
  mutable value : int array;
  mutable iwords : int array;  (** item [i]'s words at [i * nw] *)
  mutable twin : int array;
      (** the nearest earlier item of the same child with equal words,
          or -1 *)
  mutable n_children : int;  (** 1 + the largest child index *)
  (* the current partition *)
  mutable n_classes : int;
  mutable cwords : int array;  (** class [c]'s union at [c * nw] *)
  mutable saved : int array;
      (** at [i * nw]: the words item [i]'s class had before it joined *)
  mutable size : int array;  (** members per class *)
  mutable owns : Bytes.t;
      (** [(c * n_children) + child] set iff class [c] holds a value of
          that child — the same-child constraint in O(1) *)
  mutable assign : int array;  (** item -> class *)
  mutable opener : int array;  (** class -> the item that opened it, or -1 *)
  mutable lock : int array;
      (** class -> a class that must hold two members before this one
          may be joined, or -1 *)
  (* the canonical key *)
  mutable kbuf : int array;
  mutable tbuf : int array;  (** a transition key in class order *)
  mutable order : int array;
  seen : Wordtbl.t;  (** the keys met since [clear], payloads only *)
}

let create () =
  {
    width = 0;
    nw = 0;
    n = 0;
    child = [||];
    value = [||];
    iwords = [||];
    twin = [||];
    n_children = 0;
    n_classes = 0;
    cwords = [||];
    saved = [||];
    size = [||];
    owns = Bytes.empty;
    assign = [||];
    opener = [||];
    lock = [||];
    kbuf = [||];
    tbuf = [||];
    order = [||];
    seen = Wordtbl.create 8;
  }

let clear e ~width =
  e.width <- width;
  e.nw <- Bitv.word_count width;
  e.n <- 0;
  e.n_children <- 0;
  Wordtbl.clear e.seen

let grow a len fill =
  if Array.length a >= len then a
  else begin
    let a' = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let push e child value bv =
  if Bitv.width bv <> e.width then invalid_arg "Merging.push: width mismatch";
  let i = e.n and nw = e.nw in
  if i > 0 && e.child.(i - 1) <> child then
    for j = 0 to i - 2 do
      if e.child.(j) = child then
        invalid_arg "Merging.push: a child's values must be pushed together"
    done;
  e.child <- grow e.child (i + 1) 0;
  e.value <- grow e.value (i + 1) 0;
  e.iwords <- grow e.iwords ((i + 1) * nw) 0;
  e.twin <- grow e.twin (i + 1) 0;
  e.child.(i) <- child;
  e.value.(i) <- value;
  Bitv.blit_words bv e.iwords (i * nw);
  let j = ref (i - 1) in
  while
    !j >= 0 && e.child.(!j) = child
    && not (Bitv.equal_words bv e.iwords (!j * nw))
  do
    decr j
  done;
  e.twin.(i) <- (if !j >= 0 && e.child.(!j) = child then !j else -1);
  if child >= e.n_children then e.n_children <- child + 1;
  e.n <- i + 1

(* The restricted-growth walk over in-place class stacks, pruned by the
   twin rules above. *)
let iter ?budget e f =
  let max_cost = match budget with Some b -> b | None -> max_int in
  let n = e.n and nw = e.nw and nch = e.n_children in
  e.cwords <- grow e.cwords ((n + 1) * nw) 0;
  e.saved <- grow e.saved (n * nw) 0;
  e.size <- grow e.size (n + 1) 0;
  e.assign <- grow e.assign n 0;
  e.opener <- grow e.opener (n + 1) 0;
  e.lock <- grow e.lock (n + 1) 0;
  e.kbuf <- grow e.kbuf (((n + 1) * nw) + 2) 0;
  e.tbuf <- grow e.tbuf (((n + 1) * nw) + 2) 0;
  e.order <- grow e.order (n + 1) 0;
  if Bytes.length e.owns < (n + 1) * nch then
    e.owns <- Bytes.create (max ((n + 1) * nch) (2 * Bytes.length e.owns));
  Bytes.fill e.owns 0 ((n + 1) * nch) '\000';
  Array.fill e.cwords 0 nw 0;
  e.size.(0) <- 0;
  e.opener.(0) <- -1;
  e.lock.(0) <- -1;
  e.n_classes <- 1;
  let cwords = e.cwords and iwords = e.iwords and saved = e.saved in
  let size = e.size and lock = e.lock in
  let rec go idx cost =
    if idx >= n then f e
    else begin
      let child = e.child.(idx) in
      let ib = idx * nw in
      (* the twin's class [pc]: joined, [idx] may join only later
         classes; opened, [idx] must open one too, locked on [pc] *)
      let p = e.twin.(idx) in
      let pc = if p < 0 then -1 else e.assign.(p) in
      let p_opened = p >= 0 && e.opener.(pc) = p in
      let first = if p_opened then e.n_classes else pc + 1 in
      for c = first to e.n_classes - 1 do
        (* the root class and classes of two or more cost 1 to join; a
           singleton costs 2, as both its members become merged *)
        let cost' = cost + if c > 0 && size.(c) = 1 then 2 else 1 in
        let own = (c * nch) + child in
        if
          cost' <= max_cost
          && Bytes.get e.owns own = '\000'
          && (lock.(c) < 0 || size.(lock.(c)) > 1)
        then begin
          let cb = c * nw in
          for j = 0 to nw - 1 do
            saved.(ib + j) <- cwords.(cb + j);
            cwords.(cb + j) <- cwords.(cb + j) lor iwords.(ib + j)
          done;
          Bytes.set e.owns own '\001';
          size.(c) <- size.(c) + 1;
          e.assign.(idx) <- c;
          go (idx + 1) cost';
          size.(c) <- size.(c) - 1;
          Bytes.set e.owns own '\000';
          for j = 0 to nw - 1 do
            cwords.(cb + j) <- saved.(ib + j)
          done
        end
      done;
      let c = e.n_classes in
      for j = 0 to nw - 1 do
        cwords.((c * nw) + j) <- iwords.(ib + j)
      done;
      size.(c) <- 1;
      e.opener.(c) <- idx;
      lock.(c) <- (if p_opened then pc else -1);
      Bytes.set e.owns ((c * nch) + child) '\001';
      e.assign.(idx) <- c;
      e.n_classes <- c + 1;
      go (idx + 1) cost;
      e.n_classes <- c;
      Bytes.set e.owns ((c * nch) + child) '\000'
    end
  in
  go 0 0

let n_classes e = e.n_classes

let class_union e c =
  if c < 0 || c >= e.n_classes then invalid_arg "Merging.class_union";
  Bitv.of_words e.width e.cwords (c * e.nw)

let class_words e c dst pos =
  if c < 0 || c >= e.n_classes then invalid_arg "Merging.class_words";
  for j = 0 to e.nw - 1 do
    dst.(pos + j) <- e.cwords.((c * e.nw) + j)
  done

(* Whether class [c1]'s words come after class [c2]'s, lexicographically
   (signed word order, as [Bitv.compare]). *)
let class_after cw nw c1 c2 =
  let j = ref 0 and d = ref 0 in
  while !d = 0 && !j < nw do
    d := Int.compare cw.((c1 * nw) + !j) cw.((c2 * nw) + !j);
    incr j
  done;
  !d > 0

(* The canonical key is built in [kbuf] in {!Key}'s layout, hashed as
   it is copied, and looked up in [seen] without a copy; only a new key
   is copied, into the table's pool. The loops stand in for
   [Array.blit], a C call that costs more than a class's few words. *)
let fresh_key e =
  let nw = e.nw and nc = e.n_classes in
  let k = e.kbuf and ord = e.order and cw = e.cwords in
  (* insertion sort of the non-root classes: there are a handful; the
     first words decide nearly every comparison *)
  for c = 1 to nc - 1 do
    let j = ref c and w = cw.(c * nw) in
    while
      !j > 1
      &&
      let a = cw.(ord.(!j - 1) * nw) in
      a > w || (a = w && nw > 1 && class_after cw nw ord.(!j - 1) c)
    do
      ord.(!j) <- ord.(!j - 1);
      decr j
    done;
    ord.(!j) <- c
  done;
  let len = 1 + (nc * nw) in
  k.(0) <- len;
  k.(1) <- nc;
  let h = ref (len + 0x64) in
  for p = 0 to nc - 1 do
    let src = (if p = 0 then 0 else ord.(p)) * nw and dst = 2 + (p * nw) in
    for j = 0 to nw - 1 do
      let w = cw.(src + j) in
      k.(dst + j) <- w;
      h := (!h lxor (w lxor (w lsr 31))) * 0x01000193
    done
  done;
  let h = Wordtbl.finish !h in
  Wordtbl.find e.seen k 1 len h < 0
  && begin
    ignore (Wordtbl.add e.seen k 1 len h);
    true
  end

let key e =
  let w = Wordtbl.key e.seen (Wordtbl.length e.seen - 1) in
  Array.append [| Array.length w |] w

(* Past t0 classes the key keeps the class order: the same words, the
   non-root classes in class index order. *)
let transition_key e ~t0 =
  let nw = e.nw and nc = e.n_classes in
  if nc <= t0 then key e
  else begin
    let len = 1 + (nc * nw) in
    let k = Array.make (len + 1) nc in
    k.(0) <- len;
    Array.blit e.cwords 0 k 2 (nc * nw);
    k
  end

(* The same key, prefixed with [tag] instead of its length, interned in
   place: [kbuf] still holds the canonical key [fresh_key] just built. *)
let intern_transition_key e ~t0 ~tag tbl =
  let nc = e.n_classes in
  let len = 2 + (nc * e.nw) in
  let buf =
    if nc <= t0 then e.kbuf
    else begin
      e.tbuf.(1) <- nc;
      for j = 0 to (nc * e.nw) - 1 do
        e.tbuf.(2 + j) <- e.cwords.(j)
      done;
      e.tbuf
    end
  in
  buf.(0) <- tag;
  Wordtbl.intern tbl buf 0 len

let current e =
  let lists = Array.make e.n_classes [] in
  for i = e.n - 1 downto 0 do
    let c = e.assign.(i) in
    lists.(c) <- (e.child.(i), e.value.(i)) :: lists.(c)
  done;
  List.init e.n_classes (fun c -> { has_root = c = 0; members = lists.(c) })
