type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

(* --- parsing --- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_encode buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with _ -> fail "bad \\u escape"
           in
           utf8_encode buf code
         | _ -> fail "unknown escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((key, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
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

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
    Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None
