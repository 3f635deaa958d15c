type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

(* --- parsing --- *)

(* One pass over the text with a mutable cursor: characters are read
   behind explicit bounds checks, an escape-free string is one
   [String.sub], a short integer is read in place and literals are
   matched in place, so little but the values themselves allocates.
   Errors name the offset the cursor stood at. *)

exception Bad of string

type reader = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Bad (Printf.sprintf "%s at offset %d" msg r.pos))

let rec skip_ws r =
  if r.pos < r.n then
    match String.unsafe_get r.s r.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      r.pos <- r.pos + 1;
      skip_ws r
    | _ -> ()

let at r c = r.pos < r.n && String.unsafe_get r.s r.pos = c

let expect r c =
  if at r c then r.pos <- r.pos + 1
  else fail r (Printf.sprintf "expected %C" c)

(* Whether [word] is at [s.[pos]], from its [i]th char on; the caller
   checks the bounds. *)
let rec word_at s pos word i =
  i = String.length word
  || String.unsafe_get s (pos + i) = String.unsafe_get word i
     && word_at s pos word (i + 1)

let literal r word value =
  let l = String.length word in
  if r.pos + l <= r.n && word_at r.s r.pos word 0 then begin
    r.pos <- r.pos + l;
    value
  end
  else fail r ("expected " ^ word)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The four characters at [i] (in bounds) as the hex number
   [int_of_string "0x…"] reads: a hex digit, then hex digits or '_'
   separators; -1 if they are not one. *)
let hex4 s i =
  let v = ref (hex_digit (String.unsafe_get s i)) in
  for j = i + 1 to i + 3 do
    match String.unsafe_get s j with
    | '_' -> ()
    | c ->
      let d = hex_digit c in
      v := if !v < 0 || d < 0 then -1 else (!v lsl 4) lor d
  done;
  !v

let utf8_encode buf code =
  let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xF0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3F));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

(* A [\u] escape, the cursor just past the [u]. A high surrogate must be
   followed by a [\u] low surrogate, and the pair is one code point; a
   surrogate on its own is an error. *)
let unicode_escape r buf =
  if r.pos + 4 > r.n then fail r "truncated \\u escape";
  let code = hex4 r.s r.pos in
  r.pos <- r.pos + 4;
  if code < 0 then fail r "bad \\u escape";
  if code < 0xD800 || code > 0xDFFF then utf8_encode buf code
  else begin
    let low =
      if code < 0xDC00 && r.pos + 6 <= r.n && at r '\\'
         && String.unsafe_get r.s (r.pos + 1) = 'u'
      then hex4 r.s (r.pos + 2)
      else -1
    in
    if low < 0xDC00 || low > 0xDFFF then fail r "bad \\u escape";
    r.pos <- r.pos + 6;
    utf8_encode buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
  end

(* The escape after a backslash, the cursor just past the backslash. *)
let escape_char r buf =
  if r.pos >= r.n then fail r "unterminated escape";
  let e = String.unsafe_get r.s r.pos in
  r.pos <- r.pos + 1;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' -> unicode_escape r buf
  | _ -> fail r "unknown escape"

(* The first quote or backslash at or after [i], or [n]. *)
let rec plain_end s n i =
  if i >= n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_end s n (i + 1)

(* The rest of a string that has an escape, the cursor on a quote or
   backslash (or at the end), the text before it already in [buf]. *)
let rec escaped_string r buf =
  if r.pos >= r.n then fail r "unterminated string";
  let c = String.unsafe_get r.s r.pos in
  r.pos <- r.pos + 1;
  if c = '"' then Buffer.contents buf
  else begin
    escape_char r buf;
    let i = plain_end r.s r.n r.pos in
    Buffer.add_substring buf r.s r.pos (i - r.pos);
    r.pos <- i;
    escaped_string r buf
  end

let parse_string r =
  expect r '"';
  let start = r.pos in
  let i = plain_end r.s r.n start in
  if i < r.n && String.unsafe_get r.s i = '"' then begin
    r.pos <- i + 1;
    String.sub r.s start (i - start)
  end
  else begin
    let buf = Buffer.create (i - start + 16) in
    Buffer.add_substring buf r.s start (i - start);
    r.pos <- i;
    escaped_string r buf
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

(* A number is the longest run of number characters, read by
   [float_of_string_opt]. A run [-?[0-9]{1,15}] is an exact integer and
   is read in place; [-0] stays [-0.]. *)
let parse_number r =
  let s = r.s and n = r.n and start = r.pos in
  let first = if String.unsafe_get s start = '-' then start + 1 else start in
  let i = ref first and v = ref 0 in
  while !i < n && !i - first < 16 && is_digit (String.unsafe_get s !i) do
    v := (10 * !v) + Char.code (String.unsafe_get s !i) - Char.code '0';
    incr i
  done;
  let digits = !i - first in
  if digits >= 1 && digits <= 15
     && not (!i < n && is_num_char (String.unsafe_get s !i))
  then begin
    r.pos <- !i;
    if first > start then -.float_of_int !v else float_of_int !v
  end
  else begin
    while !i < n && is_num_char (String.unsafe_get s !i) do
      incr i
    done;
    r.pos <- !i;
    let text = String.sub s start (!i - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail r (Printf.sprintf "bad number %S" text)
  end

let rec parse_value r =
  skip_ws r;
  if r.pos >= r.n then fail r "unexpected end of input";
  match String.unsafe_get r.s r.pos with
  | '"' -> Str (parse_string r)
  | '{' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if at r '}' then begin
      r.pos <- r.pos + 1;
      Obj []
    end
    else fields r []
  | '[' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if at r ']' then begin
      r.pos <- r.pos + 1;
      Arr []
    end
    else items r []
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | '-' | '0' .. '9' -> Num (parse_number r)
  | c -> fail r (Printf.sprintf "unexpected %C" c)

and fields r acc =
  skip_ws r;
  let key = parse_string r in
  skip_ws r;
  expect r ':';
  let v = parse_value r in
  skip_ws r;
  let acc = (key, v) :: acc in
  if at r ',' then begin
    r.pos <- r.pos + 1;
    fields r acc
  end
  else if at r '}' then begin
    r.pos <- r.pos + 1;
    Obj (List.rev acc)
  end
  else fail r "expected ',' or '}'"

and items r acc =
  let v = parse_value r in
  skip_ws r;
  let acc = v :: acc in
  if at r ',' then begin
    r.pos <- r.pos + 1;
    items r acc
  end
  else if at r ']' then begin
    r.pos <- r.pos + 1;
    Arr (List.rev acc)
  end
  else fail r "expected ',' or ']'"

let parse s =
  let r = { s; n = String.length s; pos = 0 } in
  try
    let v = parse_value r in
    skip_ws r;
    if r.pos <> r.n then
      Error (Printf.sprintf "trailing garbage at offset %d" r.pos)
    else Ok v
  with Bad msg -> Error msg

(* --- printing --- *)

let hex_digits = "0123456789abcdef"

(* Runs of characters that need no escape are copied in one piece. *)
let escape buf str =
  let n = String.length str in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = str.[i] in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf str !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf str !start (n - !start)

(* [caml_format_float] is the C conversion behind [Printf]'s [%g];
   calling it directly skips the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else format_float "%.6g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f -> Buffer.add_string buf (num_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          go item)
        fields;
      Buffer.add_char buf '}'
    | Raw text -> Buffer.add_string buf text
  in
  go v;
  Buffer.contents buf

(* A monomorphic scan: [List.assoc_opt] compares keys with the
   polymorphic [compare]. The first occurrence of a key wins. *)
let member key = function
  | Obj fields ->
    let rec find = function
      | [] -> None
      | (k, v) :: rest -> if String.equal k key then Some v else find rest
    in
    find fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None
