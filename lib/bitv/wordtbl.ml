(* Open addressing with linear probing over a power-of-two slot array
   that holds [id + 1] (0 = free), kept at most half full. Key [id]'s
   words are [pool.(off.(id)) .. pool.(off.(id + 1) - 1)]; its hash is
   kept beside them, so a probe compares words only on a hash match,
   and so is its slot, so that [clear] costs the keys it forgets, not
   the slots (the merging enumeration clears its table per combo). *)

type t = {
  mutable slots : int array;
  mutable hashes : int array;  (** per id *)
  mutable slot : int array;  (** per id *)
  mutable off : int array;  (** per id, plus the end of the last key *)
  mutable pool : int array;
  mutable count : int;
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  {
    slots = Array.make !cap 0;
    hashes = Array.make (max 8 n) 0;
    slot = Array.make (max 8 n) 0;
    off = Array.make (max 8 n + 1) 0;
    pool = Array.make (4 * max 8 n) 0;
    count = 0;
  }

let clear t =
  for id = 0 to t.count - 1 do
    t.slots.(t.slot.(id)) <- 0
  done;
  t.count <- 0

let length t = t.count

(* FNV-style accumulation with Murmur3's finalizer, as [Bitv.hash]:
   the slot index is taken from the low bits, which the multiply alone
   would leave depending only on the words' low bits. *)
let finish h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x3f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x04ceb9fe1a85ec53 in
  (h lxor (h lsr 33)) land max_int

let hash src pos len =
  let h = ref (len + 0x64) in
  for i = pos to pos + len - 1 do
    let w = src.(i) in
    h := (!h lxor (w lxor (w lsr 31))) * 0x01000193
  done;
  finish !h

let same t id src pos len =
  let o = t.off.(id) in
  t.off.(id + 1) - o = len
  &&
  let pool = t.pool in
  let i = ref 0 in
  while !i < len && pool.(o + !i) = src.(pos + !i) do
    incr i
  done;
  !i = len

(* Loops, not local recursive functions: a closure over the arguments
   would be allocated on every probe. *)
let find t src pos len h =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (h land mask) and found = ref (-2) in
  while !found = -2 do
    let s = slots.(!j) in
    if s = 0 then found := -1
    else if t.hashes.(s - 1) = h && same t (s - 1) src pos len then
      found := s - 1
    else j := (!j + 1) land mask
  done;
  !found

let find_with t h same =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (h land mask) and found = ref (-2) in
  while !found = -2 do
    let s = slots.(!j) in
    if s = 0 then found := -1
    else if t.hashes.(s - 1) = h && same (s - 1) then found := s - 1
    else j := (!j + 1) land mask
  done;
  !found

let place t h id =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (h land mask) in
  while slots.(!j) <> 0 do
    j := (!j + 1) land mask
  done;
  slots.(!j) <- id + 1;
  t.slot.(id) <- !j

let resize a len =
  let a' = Array.make len 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let add t src pos len h =
  let id = t.count in
  if id >= Array.length t.hashes then begin
    let cap = 2 * (id + 1) in
    t.hashes <- resize t.hashes cap;
    t.slot <- resize t.slot cap;
    t.off <- resize t.off (cap + 1)
  end;
  if 2 * (id + 1) > Array.length t.slots then begin
    t.slots <- Array.make (2 * Array.length t.slots) 0;
    for i = 0 to id - 1 do
      place t t.hashes.(i) i
    done
  end;
  let o = t.off.(id) in
  if o + len > Array.length t.pool then
    t.pool <- resize t.pool (max (o + len) (2 * Array.length t.pool));
  Array.blit src pos t.pool o len;
  t.off.(id + 1) <- o + len;
  t.hashes.(id) <- h;
  place t h id;
  t.count <- id + 1;
  id

let intern t src pos len =
  let h = hash src pos len in
  let id = find t src pos len h in
  if id >= 0 then id else add t src pos len h

let key t id =
  if id < 0 || id >= t.count then invalid_arg "Wordtbl.key";
  Array.sub t.pool t.off.(id) (t.off.(id + 1) - t.off.(id))
