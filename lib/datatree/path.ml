type t = int list

let root = []
let child p i = p @ [ i ]

let parent = function
  | [] -> None
  | p ->
    (* Drop the last index. *)
    let rec drop_last = function
      | [] -> assert false
      | [ _ ] -> []
      | x :: rest -> x :: drop_last rest
    in
    Some (drop_last p)

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | x :: p', y :: q' -> x = y && is_prefix p' q'

let is_strict_prefix p q = is_prefix p q && List.length p < List.length q
let depth = List.length
let equal = List.equal Int.equal
let compare = List.compare Int.compare
let hash = Hashtbl.hash

(* Decimal digits straight into the buffer: [string_of_int] goes
   through the C [format_int] and allocates a string per index. *)
let rec add_index buf i =
  if i < 0 then Buffer.add_string buf (string_of_int i)
  else begin
    if i >= 10 then add_index buf (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  end

let add_to_buffer buf = function
  | [] -> Buffer.add_string buf "\xce\xb5" (* ε *)
  | i :: rest ->
    add_index buf i;
    List.iter
      (fun i ->
        Buffer.add_char buf '.';
        add_index buf i)
      rest

let to_string p =
  let buf = Buffer.create 16 in
  add_to_buffer buf p;
  Buffer.contents buf

let pp ppf p = Format.pp_print_string ppf (to_string p)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
