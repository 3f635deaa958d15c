(* Fixed-width immutable bit vectors, shared by the automata and decision
   libraries (the emptiness engine's set kernel).

   Representation: a [width] plus an array of [Sys.int_size]-bit words;
   bits at positions >= width are kept at 0 (an invariant every operation
   preserves), so equality, hashing and emptiness are plain word
   comparisons. The scanning operations skip zero words and extract set
   bits with lowest-set-bit arithmetic ([w land (-w)]) instead of probing
   every position, and [cardinal] uses a SWAR popcount — on the sparse
   sets the decision procedures manipulate this is the difference between
   O(width) and O(set bits) per scan. *)

type t = { width : int; bits : int array; mutable h : int }
(* [h] caches {!hash} (computed on first use; -1 = not yet). The
   decision procedures key many memo tables on bit vectors and look the
   same physical vector up over and over; benign if two domains race to
   fill it, since both write the same value. *)

let bits_per_word = Sys.int_size (* 63 on 64-bit *)
let words width = (width + bits_per_word - 1) / bits_per_word

(* SWAR popcount adapted to OCaml's 63-bit words: the usual 64-bit
   constants do not fit in an int literal, but the top (sign) bit is just
   another data bit here, and truncating the odd-bit mask to bit 61
   still covers every odd position of a 63-bit word. *)
let popcount w =
  let x = w - ((w lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* Number of trailing zeros of a one-bit word [b] (a power of two). *)
let ntz_pow2 b = popcount (b - 1)

(* A one-word array — the words of every set of width at most 63, which
   is nearly every set the automata and the solver build — is allocated
   inline: [Array.make] and [Array.copy] are C calls, which cost more
   than a whole operation on such a set. *)
let one_word w = [| w |]
let zeros n = if n = 1 then one_word 0 else Array.make n 0
let copy_words a = if Array.length a = 1 then one_word a.(0) else Array.copy a

let empty width =
  if width < 0 then invalid_arg "Bitv.empty: negative width";
  { width; bits = zeros (words width); h = -1 }

let check_index t i =
  if i < 0 || i >= t.width then
    invalid_arg
      (Printf.sprintf "Bitv: index %d out of bounds (width %d)" i t.width)

let check_same a b =
  if a.width <> b.width then invalid_arg "Bitv: width mismatch"

let full width =
  if width < 0 then invalid_arg "Bitv.full: negative width";
  let n = words width in
  let bits = Array.make n (-1) in
  let tail = width mod bits_per_word in
  if n > 0 && tail > 0 then bits.(n - 1) <- (1 lsl tail) - 1;
  { width; bits; h = -1 }

let mem i t =
  check_index t i;
  t.bits.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add i t =
  check_index t i;
  let bits = copy_words t.bits in
  bits.(i / bits_per_word) <-
    bits.(i / bits_per_word) lor (1 lsl (i mod bits_per_word));
  { t with bits; h = -1 }

let remove i t =
  check_index t i;
  let bits = copy_words t.bits in
  bits.(i / bits_per_word) <-
    bits.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word));
  { t with bits; h = -1 }

let singleton width i = add i (empty width)
let of_list width l =
  let t = empty width in
  List.iter
    (fun i ->
      check_index t i;
      t.bits.(i / bits_per_word) <-
        t.bits.(i / bits_per_word) lor (1 lsl (i mod bits_per_word)))
    l;
  t
let width t = t.width

(* Word-level range fill: interior words are written whole, so filling
   [lo..hi] costs O((hi-lo)/word) instead of one masked store per bit.
   This is the ↓∗ kernel of the bulk evaluator — in a pre-order-indexed
   document a subtree is the contiguous interval
   [x .. x + size(x) - 1]. *)
let fill_range bits lo hi =
  let wlo = lo / bits_per_word and whi = hi / bits_per_word in
  let mlo = -1 lsl (lo mod bits_per_word) in
  (* bits [0 .. hi mod word] of the last word *)
  let mhi =
    let tail = (hi mod bits_per_word) + 1 in
    if tail = bits_per_word then -1 else (1 lsl tail) - 1
  in
  if wlo = whi then bits.(wlo) <- bits.(wlo) lor (mlo land mhi)
  else begin
    bits.(wlo) <- bits.(wlo) lor mlo;
    for w = wlo + 1 to whi - 1 do
      bits.(w) <- -1
    done;
    bits.(whi) <- bits.(whi) lor mhi
  end

let of_range width ~lo ~hi =
  if width < 0 then invalid_arg "Bitv.of_range: negative width";
  if lo <= hi && (lo < 0 || hi >= width) then
    invalid_arg
      (Printf.sprintf "Bitv.of_range: [%d..%d] out of bounds (width %d)" lo
         hi width);
  let bits = zeros (words width) in
  if lo <= hi then fill_range bits lo hi;
  { width; bits; h = -1 }

let union a b =
  check_same a b;
  let n = Array.length a.bits in
  let bits = zeros n in
  for i = 0 to n - 1 do
    bits.(i) <- a.bits.(i) lor b.bits.(i)
  done;
  { width = a.width; bits; h = -1 }

let inter a b =
  check_same a b;
  let n = Array.length a.bits in
  let bits = zeros n in
  for i = 0 to n - 1 do
    bits.(i) <- a.bits.(i) land b.bits.(i)
  done;
  { width = a.width; bits; h = -1 }

let diff a b =
  check_same a b;
  let n = Array.length a.bits in
  let bits = zeros n in
  for i = 0 to n - 1 do
    bits.(i) <- a.bits.(i) land lnot b.bits.(i)
  done;
  { width = a.width; bits; h = -1 }

let is_empty t =
  let n = Array.length t.bits in
  let rec go i = i >= n || (t.bits.(i) = 0 && go (i + 1)) in
  go 0

let disjoint a b =
  check_same a b;
  let n = Array.length a.bits in
  let rec go i = i >= n || (a.bits.(i) land b.bits.(i) = 0 && go (i + 1)) in
  go 0

(* Short-circuits on the first word of [a] with a bit outside [b]. *)
let subset a b =
  check_same a b;
  let n = Array.length a.bits in
  let rec go i = i >= n || (a.bits.(i) land lnot b.bits.(i) = 0 && go (i + 1)) in
  go 0

let equal a b =
  a.width = b.width
  &&
  let n = Array.length a.bits in
  let rec go i = i >= n || (a.bits.(i) = b.bits.(i) && go (i + 1)) in
  go 0

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c
  else
    let n = Array.length a.bits in
    let rec go i =
      if i >= n then 0
      else
        let c = Int.compare a.bits.(i) b.bits.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* Dedicated mixer (FNV-style over words): the polymorphic hash samples
   only a prefix of the word array and hashes boxed structure; the
   decision tables key on bit vectors heavily enough for that to show.
   A multiply carries bits only upwards, so the low bits of the FNV
   accumulator depend only on the low bits of each word; [Hashtbl.Make]
   takes its bucket index from exactly those bits. Murmur3's 64-bit
   finalizer (its multipliers cut to 62 bits) spreads every bit over
   the low ones. *)
let hash t =
  if t.h >= 0 then t.h
  else begin
    let h = ref (t.width + 0x64) in
    for i = 0 to Array.length t.bits - 1 do
      let w = t.bits.(i) in
      (* fold the 63-bit word into 31-bit halves before mixing, so the
         result is stable across int sizes that can represent it *)
      let w = w lxor (w lsr 31) in
      h := (!h lxor (w land 0x3FFFFFFF)) * 0x01000193
    done;
    let h = !h lxor (!h lsr 33) in
    let h = h * 0x3f51afd7ed558ccd in
    let h = h lxor (h lsr 33) in
    let h = h * 0x04ceb9fe1a85ec53 in
    let h = (h lxor (h lsr 33)) land max_int in
    t.h <- h;
    h
  end

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.bits

(* Word-skipping scan: visit only set bits, lowest first. *)
let iter_words f src ~pos ~len =
  for wi = 0 to len - 1 do
    let w = ref src.(pos + wi) in
    if !w <> 0 then begin
      let base = wi * bits_per_word in
      while !w <> 0 do
        let b = !w land - !w in
        f (base + ntz_pow2 b);
        w := !w lxor b
      done
    end
  done

let iter f t = iter_words f t.bits ~pos:0 ~len:(Array.length t.bits)

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let exists p t =
  let n = Array.length t.bits in
  let rec go_word wi =
    wi < n
    &&
    let rec go_bits w base =
      w <> 0
      &&
      let b = w land -w in
      p (base + ntz_pow2 b) || go_bits (w lxor b) base
    in
    go_bits t.bits.(wi) (wi * bits_per_word) || go_word (wi + 1)
  in
  go_word 0

let for_all p t = not (exists (fun i -> not (p i)) t)

let choose t =
  let n = Array.length t.bits in
  let rec go wi =
    if wi >= n then None
    else
      let w = t.bits.(wi) in
      if w = 0 then go (wi + 1)
      else Some ((wi * bits_per_word) + ntz_pow2 (w land -w))
  in
  go 0

(* --- mutable builders -------------------------------------------------

   The fixpoint loops (pathfinder closure, step-up unions, merging keys)
   accumulate into one set across many small unions; doing that with the
   immutable API costs a full-array copy per element added. A builder is
   a private word array mutated in place and [freeze]d (copied) into an
   immutable value once, when the loop is done. *)

type builder = { b_width : int; b_bits : int array }

let builder width =
  if width < 0 then invalid_arg "Bitv.builder: negative width";
  { b_width = width; b_bits = zeros (words width) }

let builder_of t = { b_width = t.width; b_bits = copy_words t.bits }

let builder_width b = b.b_width

let builder_reset b =
  for i = 0 to Array.length b.b_bits - 1 do
    b.b_bits.(i) <- 0
  done

let add_in_place i b =
  if i < 0 || i >= b.b_width then
    invalid_arg
      (Printf.sprintf "Bitv.add_in_place: index %d out of bounds (width %d)" i
         b.b_width);
  b.b_bits.(i / bits_per_word) <-
    b.b_bits.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let remove_in_place i b =
  if i < 0 || i >= b.b_width then
    invalid_arg
      (Printf.sprintf
         "Bitv.remove_in_place: index %d out of bounds (width %d)" i
         b.b_width);
  b.b_bits.(i / bits_per_word) <-
    b.b_bits.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let builder_mem i b =
  i >= 0 && i < b.b_width
  && b.b_bits.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add_range_in_place ~lo ~hi b =
  if lo > hi then ()
  else if lo < 0 || hi >= b.b_width then
    invalid_arg
      (Printf.sprintf
         "Bitv.add_range_in_place: [%d..%d] out of bounds (width %d)" lo hi
         b.b_width)
  else fill_range b.b_bits lo hi

(* OR [src] into [b]; reports whether [b] gained any bit (the natural
   "changed" test of a saturation loop). *)
let union_into src b =
  if src.width <> b.b_width then invalid_arg "Bitv.union_into: width mismatch";
  let changed = ref false in
  for i = 0 to Array.length src.bits - 1 do
    let cur = b.b_bits.(i) in
    let w = cur lor src.bits.(i) in
    if w <> cur then begin
      b.b_bits.(i) <- w;
      changed := true
    end
  done;
  !changed

let freeze b = { width = b.b_width; bits = copy_words b.b_bits; h = -1 }

(* --- raw words ---------------------------------------------------------

   The merging enumeration keeps each class's union as plain words in one
   flat int array, so a join is a word OR and a backtrack a word store;
   these two convert at its edges. *)

let word_count = words

let equal_words t src pos =
  let n = Array.length t.bits in
  let i = ref 0 in
  while !i < n && t.bits.(!i) = src.(pos + !i) do
    incr i
  done;
  !i = n

let lowest_bit w = ntz_pow2 (w land -w)

let blit_words t dst pos = Array.blit t.bits 0 dst pos (Array.length t.bits)

let of_words width src pos =
  if width < 0 then invalid_arg "Bitv.of_words: negative width";
  let n = words width in
  let bits = Array.sub src pos n in
  let tail = width mod bits_per_word in
  if n > 0 && tail > 0 then
    bits.(n - 1) <- bits.(n - 1) land ((1 lsl tail) - 1);
  { width; bits; h = -1 }

let filter p t =
  let b = builder t.width in
  iter (fun i -> if p i then add_in_place i b) t;
  freeze b

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (elements t)
