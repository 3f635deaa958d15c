(* The JSON reader against the one it replaced, which survives here
   only as [Reference.parse]: on every input both must give the same
   result — equal values, zeros of the same sign, byte-equal error
   texts. Inputs are random values printed by [Json.to_string], random
   texts with every escape, number spelling and whitespace the reader
   accepts, and single-byte mutations and truncations of those and of
   the golden transcript's request lines. No generator emits a
   surrogate [\u] escape: the reader pairs surrogates where the old one
   encoded each half on its own, which the last tests pin. *)

module Service = Xpds_service.Service

module Reference = struct
  open Json

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
end

(* --- equality --- *)

(* Structural equality that also tells [0.] from [-0.]. *)
let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y ->
    Float.equal x y && Float.sign_bit x = Float.sign_bit y
  | Json.Arr xs, Json.Arr ys ->
    List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | _ -> a = b

let show = function
  | Ok v -> "Ok " ^ Json.to_string v
  | Error e -> "Error " ^ e

let agree text =
  match (Json.parse text, Reference.parse text) with
  | Ok a, Ok b -> same a b
  | Error a, Error b -> String.equal a b
  | _ -> false

(* --- generators --- *)

let gen_key = QCheck.Gen.oneofl [ "a"; "b"; "id"; "formula"; ""; "k\"q"; "\xc3\xa9" ]

let gen_str =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:char (int_range 0 6);
        oneofl [ ""; "a b"; "q\"uote"; "back\\slash"; "tab\tx"; "nl\n\r";
                 "\x00\x01\x1f\x7f"; "\xc3\xa9t\xc3\xa9"; "\xe2\x9f\xa8"; "/" ]
      ])

(* Integral floats printed as integers (-0, 15 digits), beyond 1e15
   printed with an exponent, and fractions. *)
let gen_num =
  QCheck.Gen.(
    oneof
      [ map float_of_int small_signed_int;
        oneofl [ 0.; -0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; 1e16 +. 2.;
                 123456789012345.; 0.1; -2.5e-7; 1e300; 5e-324 ];
        map (fun i -> float_of_int i /. 1000.) small_signed_int;
        map (fun (m, e) -> Float.ldexp (float_of_int m) e)
          (pair small_signed_int (int_range (-60) 60))
      ])

let gen_value =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [ return Json.Null; map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) gen_num;
                 map (fun s -> Json.Str s) gen_str ]
           in
           if depth = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Json.Arr l)
                       (list_size (int_range 0 4) (self (depth - 1))));
                 (2, map (fun l -> Json.Obj l)
                       (list_size (int_range 0 4)
                          (pair gen_key (self (depth - 1)))))
               ]))

(* A text the printer never writes: random whitespace between tokens,
   every escape the reader knows (BMP [\u] escapes in either case, no
   surrogates), and numbers spelled as 15- and 16-digit integers,
   leading zeros, [-0], fractions and exponents — and some that are
   not numbers at all. *)
let gen_ws = QCheck.Gen.oneofl [ ""; ""; " "; "\t"; "\n"; "\r\n "; "  " ]

let gen_num_text =
  QCheck.Gen.(
    oneof
      [ map string_of_int int;
        map string_of_int small_signed_int;
        map (fun (neg, digits) ->
            (if neg then "-" else "") ^ String.concat "" (List.map string_of_int digits))
          (pair bool (list_size (int_range 14 17) (int_range 0 9)));
        oneofl [ "0"; "-0"; "-00"; "007"; "-0.0"; "1."; "1.5"; "-1.5e-3";
                 "1e5"; "1E+5"; "2e-0"; "1e400"; "-1e400"; "999999999999999";
                 "-999999999999999"; "1000000000000000"; "9007199254740993";
                 "-"; "--1"; "1e"; "1-2"; "0.1.2"; "+1"; "1e+" ]
      ])

let gen_escape =
  QCheck.Gen.(
    oneof
      [ oneofl [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t";
                 "\\u0000"; "\\u001f"; "\\u00e9"; "\\u00E9"; "\\u07ff";
                 "\\u0800"; "\\u4e2D"; "\\uFFFF"; "\\ud7ff"; "\\ue000" ];
        map (fun c ->
            Printf.sprintf "\\u%04x" (if c >= 0xD800 then c + 0x800 else c))
          (int_range 0 (0xFFFF - 0x800))
      ])

let gen_str_text =
  QCheck.Gen.(
    map (fun parts -> "\"" ^ String.concat "" parts ^ "\"")
      (list_size (int_range 0 6)
         (oneof
            [ gen_escape;
              oneofl [ "a"; "xyz"; " "; "\xc3\xa9"; "\xf0\x9f\x98\x80"; "\x01" ]
            ])))

let gen_text =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let ws_around g =
             map3 (fun a t b -> a ^ t ^ b) gen_ws g gen_ws
           in
           let leaf =
             oneof
               [ oneofl [ "null"; "true"; "false" ]; gen_num_text; gen_str_text ]
           in
           let join l = String.concat "," l in
           ws_around
             (if depth = 0 then leaf
              else
                frequency
                  [ (2, leaf);
                    (1, map (fun l -> "[" ^ join l ^ "]")
                          (list_size (int_range 0 4) (self (depth - 1))));
                    (2, map (fun l -> "{" ^ join l ^ "}")
                          (list_size (int_range 0 4)
                             (map3 (fun k ws v -> k ^ ws ^ ":" ^ v)
                                gen_str_text gen_ws (self (depth - 1)))))
                  ])))

(* One byte replaced, deleted or inserted, or the text cut short. The
   replacement bytes favour the ones the reader branches on. *)
let gen_mutant text =
  QCheck.Gen.(
    let n = String.length text in
    let byte =
      oneof
        [ oneofl
            [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '-'; '+'; '.'; 'e';
              '0'; '9'; 'u'; 'd'; 'F'; '_'; 't'; 'n'; ' '; '\n'; '\x00' ];
          char
        ]
    in
    if n = 0 then map (String.make 1) byte
    else
      int_range 0 (n - 1) >>= fun i ->
      oneof
        [ map (fun c ->
              String.sub text 0 i ^ String.make 1 c
              ^ String.sub text (i + 1) (n - i - 1))
            byte;
          return (String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1));
          map (fun c -> String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i))
            byte;
          return (String.sub text 0 i)
        ])

let golden_lines = List.map (fun (_, request, _) -> request) T_golden.transcript

let gen_input =
  QCheck.Gen.(
    frequency
      [ (2, map Json.to_string gen_value);
        (2, gen_text);
        (3, map Json.to_string gen_value >>= gen_mutant);
        (3, gen_text >>= gen_mutant);
        (2, oneofl golden_lines >>= gen_mutant)
      ])

(* --- properties --- *)

(* Whether [text] may hold a surrogate [\u] escape, the one place the
   readers differ on purpose: a mutant of ["\ud7ff"] can be one. An
   escaped backslash before the [u] also counts, so this errs towards
   skipping. *)
let may_have_surrogate text =
  let n = String.length text in
  let rec at i =
    i + 6 <= n
    && ((text.[i] = '\\' && text.[i + 1] = 'u'
        && match int_of_string_opt ("0x" ^ String.sub text (i + 2) 4) with
           | Some c -> c >= 0xD800 && c <= 0xDFFF
           | None -> false)
       || at (i + 1))
  in
  at 0

let prop_agree =
  Gen_helpers.qtest ~count:3000 "parse = reference parse"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_input)
    (fun text ->
      QCheck.assume (not (may_have_surrogate text));
      agree text)

let prop_round_trip =
  Gen_helpers.qtest ~count:500 "parse (to_string v) = reference"
    (QCheck.make ~print:(fun v -> Json.to_string v) gen_value)
    (fun v ->
      let text = Json.to_string v in
      agree text && Result.is_ok (Json.parse text))

let test_golden_lines () =
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (agree line);
      for i = 0 to String.length line do
        let cut = String.sub line 0 i in
        if not (agree cut) then Alcotest.failf "truncation %S disagrees" cut
      done)
    golden_lines

(* Hand-picked texts for each error path and each fast path's edge. *)
let edge_cases =
  [ ""; " "; "nul"; "nulL"; "tru"; "true "; "truex"; "[1,]"; "[1 2]"; "{\"a\" 1}";
    "{\"a\":1,}"; "{1:2}"; "{\"a\":1"; "\"abc"; "\"ab\\"; "\"\\x\""; "\"\\u12\"";
    "\"\\u12g4\""; "\"\\u_123\""; "\"\\u1_2_\""; "\"\\u1___\""; "\"\\u+123\"";
    "-"; "-0"; "-0 "; "0"; "-a"; "12a"; "1.5"; "123456789012345";
    "1234567890123456"; "-123456789012345"; "0123"; "-00"; "-.5"; "1e5"; "1-";
    "[-0,0]";
    "{\"a\":-0}"; "@"; "\x00"; "[] x"; "{\"\":\"\"}" ]

let test_edge_cases () =
  List.iter
    (fun text ->
      Alcotest.(check string) (Printf.sprintf "%S" text)
        (show (Reference.parse text)) (show (Json.parse text));
      Alcotest.(check bool) (Printf.sprintf "%S agrees" text) true (agree text))
    edge_cases

(* --- member --- *)

let test_member () =
  let obj = Json.Obj [ ("a", Json.Num 1.); ("b", Json.Null); ("a", Json.Num 2.) ] in
  Alcotest.(check bool) "first duplicate wins" true
    (Json.member "a" obj = Some (Json.Num 1.));
  Alcotest.(check bool) "parsed: first duplicate wins" true
    (Option.bind (Result.to_option (Json.parse {|{"k":"x","k":"y"}|}))
       (Json.member "k")
    = Some (Json.Str "x"));
  Alcotest.(check bool) "null member" true (Json.member "b" obj = Some Json.Null);
  Alcotest.(check bool) "absent" true (Json.member "c" obj = None);
  List.iter
    (fun v ->
      Alcotest.(check bool) (Json.to_string v ^ " has no members") true
        (Json.member "a" v = None))
    [ Json.Null; Json.Bool true; Json.Num 1.; Json.Str "a";
      Json.Arr [ Json.Obj [ ("a", Json.Null) ] ]; Json.Raw {|{"a":1}|} ]

(* --- surrogate pairs --- *)

let test_surrogates () =
  let check text expected =
    Alcotest.(check string) text expected (show (Json.parse text))
  in
  check {|"\ud83d\ude00"|} "Ok \"\xf0\x9f\x98\x80\"";
  check {|"\uD800\uDC00"|} "Ok \"\xf0\x90\x80\x80\"";
  check {|"\udbff\udfff!"|} "Ok \"\xf4\x8f\xbf\xbf!\"";
  check {|"\ud83d"|} "Error bad \\u escape at offset 7";
  check {|"\ud83dx"|} "Error bad \\u escape at offset 7";
  check {|"\ud83d\u0041"|} "Error bad \\u escape at offset 7";
  check {|"\ud83d\ud83d"|} "Error bad \\u escape at offset 7";
  check {|"\ud83d\ude0"|} "Error bad \\u escape at offset 7";
  check {|"\ude00"|} "Error bad \\u escape at offset 7";
  check {|"\ude00\ude00"|} "Error bad \\u escape at offset 7";
  check {|"a\ude00\ud83d"|} "Error bad \\u escape at offset 8"

(* A Python client's [json.dumps] escapes a label outside the BMP as a
   surrogate pair. The answer must be the one the raw UTF-8 line gets,
   from the same cache entry, in valid UTF-8. *)
let test_surrogate_request () =
  let svc = Service.create Service.Config.default in
  let answer line =
    let reply = Service.handle_line svc line in
    Alcotest.(check bool) (reply ^ " is valid UTF-8") true
      (String.is_valid_utf_8 reply);
    match Json.parse reply with
    | Ok v -> v
    | Error e -> Alcotest.failf "reply not JSON (%s): %s" e reply
  in
  let field name v =
    match Option.bind (Json.member name v) Json.to_str with
    | Some s -> s
    | None -> Alcotest.failf "no %S in %s" name (Json.to_string v)
  in
  let escaped = answer {|{"id":"e","formula":"<down[\"\ud83d\ude00\"]>"}|} in
  let raw = answer "{\"id\":\"r\",\"formula\":\"<down[\\\"\xf0\x9f\x98\x80\\\"]>\"}" in
  Alcotest.(check string) "escaped line solves" "solve" (field "tier" escaped);
  Alcotest.(check string) "raw line hits the same cache entry" "memory"
    (field "tier" raw);
  Alcotest.(check string) "same witness" (field "witness" escaped)
    (field "witness" raw);
  let w = field "witness" escaped and label = "\xf0\x9f\x98\x80" in
  Alcotest.(check bool) "witness names the label" true
    (List.exists (String.equal label)
       (List.init (String.length w - 3) (fun i -> String.sub w i 4)))

let suite =
  ( "json",
    [ prop_agree;
      prop_round_trip;
      Alcotest.test_case "golden request lines and their truncations" `Quick
        test_golden_lines;
      Alcotest.test_case "error paths and fast-path edges" `Quick
        test_edge_cases;
      Alcotest.test_case "member" `Quick test_member;
      Alcotest.test_case "surrogate pairs" `Quick test_surrogates;
      Alcotest.test_case "surrogate-escaped request" `Quick
        test_surrogate_request
    ] )
