open Ast

let is_bare_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' | '#' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' | '#' | '\'' ->
           true
         | _ -> false)
       s
  && not (List.mem s [ "eps"; "down"; "desc"; "true"; "false" ])

(* Labels that are not bare identifiers print as an OCaml string
   literal, the rendering of [%S]. *)
let label_to_string l =
  let s = Xpds_datatree.Label.to_string l in
  if is_bare_ident s then s else "\"" ^ String.escaped s ^ "\""

let pp_label ppf l = Format.pp_print_string ppf (label_to_string l)

(* The ASCII printer writes straight into a buffer: it renders every
   cache key and store record on the serving path, where [Format]'s
   per-call setup would dominate. It contains no break hints, so the
   [Format] printers below are just this string.

   Binary operators are right-associative in the parser, so printers put
   the left operand at the next-higher precedence level and the right
   operand at the operator's own level.
   Path levels: 0 = union, 1 = sequence, 2 = guard item, 3 = postfix. *)
let open_paren buf needed = if needed then Buffer.add_char buf '('
let close_paren buf needed = if needed then Buffer.add_char buf ')'

let rec add_path buf prec p =
  match p with
  | Axis Self -> Buffer.add_string buf "eps"
  | Axis Child -> Buffer.add_string buf "down"
  | Axis Descendant -> Buffer.add_string buf "desc"
  | Union (a, b) ->
    open_paren buf (prec > 0);
    add_path buf 1 a;
    Buffer.add_char buf '|';
    add_path buf 0 b;
    close_paren buf (prec > 0)
  | Seq (a, b) ->
    open_paren buf (prec > 1);
    add_path buf 2 a;
    Buffer.add_char buf '/';
    add_path buf 1 b;
    close_paren buf (prec > 1)
  | Guard (n, a) ->
    open_paren buf (prec > 2);
    Buffer.add_char buf '[';
    add_node buf 0 n;
    Buffer.add_char buf ']';
    add_path buf 2 a;
    close_paren buf (prec > 2)
  | Filter (a, n) ->
    add_path buf 3 a;
    Buffer.add_char buf '[';
    add_node buf 0 n;
    Buffer.add_char buf ']'
  | Star a ->
    add_path buf 3 a;
    Buffer.add_char buf '*'

(* Node levels: 0 = or, 1 = and, 2 = unary/atom. *)
and add_node buf prec n =
  match n with
  | True -> Buffer.add_string buf "true"
  | False -> Buffer.add_string buf "false"
  | Lab l -> Buffer.add_string buf (label_to_string l)
  | Or (a, b) ->
    open_paren buf (prec > 0);
    add_node buf 1 a;
    Buffer.add_string buf " | ";
    add_node buf 0 b;
    close_paren buf (prec > 0)
  | And (a, b) ->
    open_paren buf (prec > 1);
    add_node buf 2 a;
    Buffer.add_string buf " & ";
    add_node buf 1 b;
    close_paren buf (prec > 1)
  | Not a ->
    Buffer.add_char buf '~';
    add_node buf 2 a
  | Exists p ->
    Buffer.add_char buf '<';
    add_path buf 0 p;
    Buffer.add_char buf '>'
  | Cmp (p, op, q) ->
    (* Comparison operands admit no top-level union in the grammar. *)
    add_path buf 1 p;
    Buffer.add_string buf (match op with Eq -> " = " | Neq -> " != ");
    add_path buf 1 q

let node_to_string n =
  let buf = Buffer.create 64 in
  add_node buf 0 n;
  Buffer.contents buf

let path_to_string p =
  let buf = Buffer.create 64 in
  add_path buf 0 p;
  Buffer.contents buf

let pp_node ppf n = Format.pp_print_string ppf (node_to_string n)
let pp_path ppf p = Format.pp_print_string ppf (path_to_string p)

let pp_formula ppf = function
  | Node n -> pp_node ppf n
  | Path p -> pp_path ppf p

(* Paper-style unicode output (display only). *)
let rec pp_fancy_path_prec prec ppf p =
  let paren needed body =
    if needed then Format.fprintf ppf "(%t)" body else body ppf
  in
  match p with
  | Axis Self -> Format.pp_print_string ppf "\xce\xb5"
  | Axis Child -> Format.pp_print_string ppf "\xe2\x86\x93"
  | Axis Descendant -> Format.pp_print_string ppf "\xe2\x86\x93*"
  | Union (a, b) ->
    paren (prec > 0) (fun ppf ->
        Format.fprintf ppf "%a \xe2\x88\xaa %a"
          (pp_fancy_path_prec 1)
          a
          (pp_fancy_path_prec 0)
          b)
  | Seq (a, b) ->
    paren (prec > 1) (fun ppf ->
        Format.fprintf ppf "%a%a"
          (pp_fancy_path_prec 2)
          a
          (pp_fancy_path_prec 1)
          b)
  | Guard (n, a) ->
    paren (prec > 2) (fun ppf ->
        Format.fprintf ppf "[%a]%a" (pp_fancy_node_prec 0) n
          (pp_fancy_path_prec 2)
          a)
  | Filter (a, n) ->
    Format.fprintf ppf "%a[%a]"
      (pp_fancy_path_prec 3)
      a (pp_fancy_node_prec 0) n
  | Star a -> Format.fprintf ppf "%a*" (pp_fancy_path_prec 3) a

and pp_fancy_node_prec prec ppf n =
  let paren needed body =
    if needed then Format.fprintf ppf "(%t)" body else body ppf
  in
  match n with
  | True -> Format.pp_print_string ppf "\xe2\x8a\xa4"
  | False -> Format.pp_print_string ppf "\xe2\x8a\xa5"
  | Lab l -> pp_label ppf l
  | Or (a, b) ->
    paren (prec > 0) (fun ppf ->
        Format.fprintf ppf "%a \xe2\x88\xa8 %a" (pp_fancy_node_prec 1) a
          (pp_fancy_node_prec 0) b)
  | And (a, b) ->
    paren (prec > 1) (fun ppf ->
        Format.fprintf ppf "%a \xe2\x88\xa7 %a" (pp_fancy_node_prec 2) a
          (pp_fancy_node_prec 1) b)
  | Not a -> Format.fprintf ppf "\xc2\xac%a" (pp_fancy_node_prec 2) a
  | Exists p ->
    Format.fprintf ppf "\xe2\x9f\xa8%a\xe2\x9f\xa9" (pp_fancy_path_prec 0) p
  | Cmp (p, op, q) ->
    let sym = match op with Eq -> "=" | Neq -> "\xe2\x89\xa0" in
    Format.fprintf ppf "%a %s %a" (pp_fancy_path_prec 1) p sym
      (pp_fancy_path_prec 1) q

let pp_fancy_node ppf n = pp_fancy_node_prec 0 ppf n
