(* CRC-32 with the reflected IEEE polynomial 0xEDB88320, slicing-by-4:
   four 256-entry tables side by side in one array, so one step folds a
   whole 4-byte word into the running value with four lookups, and the
   bytes past the last whole word go through table 0 one at a time.
   OCaml's native ints are 63-bit on every platform we build for, so the
   32-bit arithmetic fits without boxing. *)

(* [table.(256 * j + b)] is the CRC of byte [b] followed by [j] zero
   bytes. *)
let table =
  let t = Array.make 1024 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to 1023 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let string ?(crc = 0) s =
  let n = String.length s in
  let byte i = Char.code (String.unsafe_get s i) in
  let look i = Array.unsafe_get table i in
  (* masked so every table index below stays in range, whatever [crc] *)
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 4 <= n do
    let j = !i in
    let w =
      !c
      lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    c :=
      look (768 + (w land 0xFF))
      lxor look (512 + ((w lsr 8) land 0xFF))
      lxor look (256 + ((w lsr 16) land 0xFF))
      lxor look (w lsr 24);
    i := j + 4
  done;
  while !i < n do
    c := look ((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF
