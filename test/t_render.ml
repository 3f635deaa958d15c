(* The serving path's direct renderers against the [Format]/[Printf]
   renderers they replaced, which survive here only as references:
   the ASCII XPath printer, [Path.to_string], [Json.num_to_string] and
   [Json]'s string escape. Two pins guard the bytes that outlive a
   process: [Cache_key.make] digests computed with the [Format]-based
   printer, and a store file written by it, which must reopen and serve
   every record from the disk tier with no self-eviction ([Store]
   re-renders each probing formula and compares it with the stored
   text). *)

open Xpds_xpath.Ast
module Pp = Xpds_xpath.Pp
module Path = Xpds_datatree.Path
module Label = Xpds_datatree.Label
module Service = Xpds_service.Service
module Cache_key = Xpds_service.Cache_key
module Store = Xpds_store.Store

(* --- the reference renderers --- *)

module Reference = struct
  let is_bare_ident s =
    s <> ""
    && (match s.[0] with
       | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' | '#' -> true
       | _ -> false)
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' | '#' | '\'' ->
             true
           | _ -> false)
         s
    && not (List.mem s [ "eps"; "down"; "desc"; "true"; "false" ])

  let pp_label ppf l =
    let s = Label.to_string l in
    if is_bare_ident s then Format.pp_print_string ppf s
    else Format.fprintf ppf "%S" s

  let rec pp_path_prec prec ppf p =
    let paren needed body =
      if needed then Format.fprintf ppf "(%t)" body else body ppf
    in
    match p with
    | Axis Self -> Format.pp_print_string ppf "eps"
    | Axis Child -> Format.pp_print_string ppf "down"
    | Axis Descendant -> Format.pp_print_string ppf "desc"
    | Union (a, b) ->
      paren (prec > 0) (fun ppf ->
          Format.fprintf ppf "%a|%a" (pp_path_prec 1) a (pp_path_prec 0) b)
    | Seq (a, b) ->
      paren (prec > 1) (fun ppf ->
          Format.fprintf ppf "%a/%a" (pp_path_prec 2) a (pp_path_prec 1) b)
    | Guard (n, a) ->
      paren (prec > 2) (fun ppf ->
          Format.fprintf ppf "[%a]%a" (pp_node_prec 0) n (pp_path_prec 2) a)
    | Filter (a, n) ->
      Format.fprintf ppf "%a[%a]" (pp_path_prec 3) a (pp_node_prec 0) n
    | Star a -> Format.fprintf ppf "%a*" (pp_path_prec 3) a

  and pp_node_prec prec ppf n =
    let paren needed body =
      if needed then Format.fprintf ppf "(%t)" body else body ppf
    in
    match n with
    | True -> Format.pp_print_string ppf "true"
    | False -> Format.pp_print_string ppf "false"
    | Lab l -> pp_label ppf l
    | Or (a, b) ->
      paren (prec > 0) (fun ppf ->
          Format.fprintf ppf "%a | %a" (pp_node_prec 1) a (pp_node_prec 0) b)
    | And (a, b) ->
      paren (prec > 1) (fun ppf ->
          Format.fprintf ppf "%a & %a" (pp_node_prec 2) a (pp_node_prec 1) b)
    | Not a -> Format.fprintf ppf "~%a" (pp_node_prec 2) a
    | Exists p -> Format.fprintf ppf "<%a>" (pp_path_prec 0) p
    | Cmp (p, op, q) ->
      let sym = match op with Eq -> "=" | Neq -> "!=" in
      let pp_operand ppf p = pp_path_prec 1 ppf p in
      Format.fprintf ppf "%a %s %a" pp_operand p sym pp_operand q

  let node_to_string n = Format.asprintf "%a" (pp_node_prec 0) n
  let path_to_string p = Format.asprintf "%a" (pp_path_prec 0) p

  let position_to_string = function
    | [] -> "\xce\xb5"
    | p ->
      Format.asprintf "%a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
           Format.pp_print_int)
        p

  let num_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f

  let string_to_json str =
    let buf = Buffer.create 16 in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      str;
    Buffer.add_char buf '"';
    Buffer.contents buf
end

(* --- generators --- *)

(* Labels that exercise every branch of the label printer: bare
   identifiers, keywords, quotes, backslashes, control characters,
   UTF-8, the empty label, plus short random byte strings. *)
let tricky_labels =
  [ "a"; "b'"; "$x#1"; "eps"; "down"; "true"; ""; "a b"; "q\"uote";
    "back\\slash"; "tab\tx"; "nl\n"; "\x01\x1f\x7f"; "\xc3\xa9t\xc3\xa9";
    "\xe2\x9f\xa8"; "1abc"; "@other" ]

let gen_labels =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (oneof
         [ oneofl tricky_labels;
           string_size ~gen:char (int_range 0 4)
         ]))

let gen_formula =
  QCheck.Gen.(
    gen_labels >>= fun labels ->
    Gen_helpers.gen_node_cfg { Gen_helpers.full_cfg with labels })

let arb_formula = QCheck.make ~print:Reference.node_to_string gen_formula

let rec paths_of_node = function
  | True | False | Lab _ -> []
  | Not a -> paths_of_node a
  | And (a, b) | Or (a, b) -> paths_of_node a @ paths_of_node b
  | Exists p -> paths_of_path p
  | Cmp (p, _, q) -> paths_of_path p @ paths_of_path q

and paths_of_path p =
  p
  ::
  (match p with
  | Axis _ -> []
  | Union (a, b) | Seq (a, b) -> paths_of_path a @ paths_of_path b
  | Guard (n, a) | Filter (a, n) -> paths_of_node n @ paths_of_path a
  | Star a -> paths_of_path a)

(* --- equivalence properties --- *)

let prop_node_to_string =
  Gen_helpers.qtest ~count:500 "node_to_string = Format printer" arb_formula
    (fun phi -> Pp.node_to_string phi = Reference.node_to_string phi)

let prop_path_to_string =
  Gen_helpers.qtest ~count:300 "path_to_string = Format printer" arb_formula
    (fun phi ->
      List.for_all
        (fun p -> Pp.path_to_string p = Reference.path_to_string p)
        (paths_of_node phi))

let prop_pp_node =
  Gen_helpers.qtest ~count:200 "pp_node prints node_to_string" arb_formula
    (fun phi ->
      Format.asprintf "%a" Pp.pp_node phi = Reference.node_to_string phi)

let prop_position_to_string =
  Gen_helpers.qtest ~count:500 "Path.to_string = Format printer"
    QCheck.(
      list_of_size Gen.(int_range 0 8)
        (oneof [ small_nat; int_range 0 max_int; int ]))
    (fun p -> Path.to_string p = Reference.position_to_string p)

let float_cases =
  [ 0.; -0.; 1.; -1.; 42.; -17.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.);
    1e15 +. 2.; 999999999999999.; 123456789012.; 0.0005; 44.373; 0.1;
    1.5; -2.25; 1e-7; 1e20; -1e20; 1e300; -1e-300; 5e-324; max_float;
    min_float; 2. ** 53.; 4503599627370496.5; 123456.7; 1234567.8;
    infinity; neg_infinity; nan ]

let test_num_cases () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h" f)
        (Reference.num_to_string f) (Json.num_to_string f))
    float_cases

let prop_num_to_string =
  Gen_helpers.qtest ~count:1000 "num_to_string = Printf"
    QCheck.(
      oneof
        [ float;
          map float_of_int int;
          map float_of_int small_signed_int;
          map (fun i -> float_of_int i /. 1000.) small_signed_int;
          map (fun (m, e) -> Float.ldexp (float_of_int m) e)
            (pair small_signed_int (int_range (-60) 60))
        ])
    (fun f -> Json.num_to_string f = Reference.num_to_string f)

let prop_string_escape =
  Gen_helpers.qtest ~count:500 "Json string escape = Printf escape"
    QCheck.(
      oneof
        [ string;
          string_gen_of_size Gen.(int_range 0 12)
            Gen.(oneofl [ 'a'; '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x1f';
                          '\x7f'; '\xc3'; '\xa9'; ' ' ])
        ])
    (fun s ->
      Json.to_string (Json.Str s) = Reference.string_to_json s
      && Json.to_string (Json.Obj [ (s, Json.Str s) ])
         = "{" ^ Reference.string_to_json s ^ ":"
           ^ Reference.string_to_json s ^ "}")

(* --- pins computed with the Format-based renderers --- *)

let default_fp = Service.Config.(fingerprint default_solver)

(* The bytes of the default fingerprint, which every key pin below and
   every stored record is keyed on. *)
let test_default_fingerprint_pin () =
  Alcotest.(check string) "default fingerprint"
    "r3;w3;t0=6;dup=2;mb=5;ms=20000;mt=200000;v=true;c=false" default_fp

(* (formula, sat key, contains key, sat_under_doctype key salted with
   "a{1*b|c}"), as [Cache_key.hex]. The fingerprint leads with
   [Sat.rules_version], so a rules change moves every pin. *)
let key_pins =
  [ ("<desc[b & down[b] != down[b]]>", "4be6d96ae67e00e65b547bf95df78cb4",
     "615bbcb90dbdb525ef64f0ef20732184", "042c588c75a244d48847a40fd04b6159");
    ("a & ~a", "de37298953fa23327e08a1a56b66b523",
     "c5cc3a8ab0d93f9790c6cff6ba309757", "80312a30fe92d6a9114242a3c6215bec");
    ("<down[\"a b\"]> & ~<down[c]>", "44c9a5e30ee4606e471857da725eb1e1",
     "4c734934901b8621bdf45a04689d3e75", "b0cbb09628806c8744bc375605757677");
    ("<down[\"q\\\"uote\"]> | \"back\\\\slash\"",
     "85aac69a1963246e429258f51b0c1d8d", "7fc199f31b290797821959df090f8799",
     "66d489eac45cdbb5f1efb084e235b77f");
    ("<down[\"tab\tx\"]>", "68969b572f38be701666179231dfcadc",
     "cd8bd04ac7460d1e9e3f8504c4f9c5d3", "84768e94f75a5d4b02c618617620e2ed");
    ("<down[\"\195\169t\195\169\"]>", "794a9550aec082da0839180030d1cf5a",
     "9bc60d5e2599d1924411eab00356e92f", "9bf6906dfe3417fd5c38a2e299a75ad1");
    ("desc[a] = desc[b]/down[c] & ~(eps[c] != (down|desc))",
     "d59e9db71b91c749e184b4d1b51e7abf", "34080bd1def6df7ee47ec681a49d3155",
     "23d391ffd89df4b3af880f0a430fb738");
    ("<(down/desc)*[a]>", "d590ae20d103fc27cb527ae1ba360c41",
     "b5362e9a059a8cb8e2debbe83e2cecbf", "e0d80bfe36ca1c959aa27157d7c2cb42")
  ]

let test_cache_key_pins () =
  List.iter
    (fun (text, sat, contains, doctype) ->
      let phi = Xpds_xpath.Parser.node_of_string_exn text in
      let hex ?kind ?salt () =
        Cache_key.hex
          (snd (Cache_key.make ?kind ?salt ~config_fingerprint:default_fp phi))
      in
      Alcotest.(check string) (text ^ " (sat)") sat (hex ());
      Alcotest.(check string) (text ^ " (contains)") contains
        (hex ~kind:"contains" ());
      Alcotest.(check string) (text ^ " (doctype)") doctype
        (hex ~kind:"sat_under_doctype" ~salt:"a{1*b|c}" ()))
    key_pins

(* The requests that wrote fixtures/store_v2.xpds (one record each). *)
let store_requests =
  [ {|{"id":"s1","formula":"<desc[b & down[b] != down[b]]>"}|};
    {|{"id":"s2","formula":"a & ~a"}|};
    {|{"id":"s3","formula":"<down[\"a b\"]> & ~<down[c]>"}|};
    {|{"id":"s4","formula":"<down[\"q\\\"uote\"]> | \"back\\\\slash\""}|};
    {|{"id":"s5","formula":"<down[\"tab\u0009x\"]>"}|};
    {|{"id":"s6","formula":"<down[\"été\"]>"}|};
    {|{"id":"s7","formula":"desc[a] = desc[b]/down[c] & ~(eps[c] != (down|desc))"}|};
    {|{"id":"s8","formula":"<(down/desc)*[a]>"}|};
    {|{"kind":"contains","id":"c1","phi":"<down[\"x y\"]>","psi":"<down[a]>"}|};
    {|{"kind":"contains","id":"c2","phi":"<down[a & <down[b]>]>","psi":"<down[a]>"}|};
    {|{"kind":"sat_under_doctype","id":"d1","formula":"<down[a]>","doctype":[{"parent":"a","at_least":[[1,"b"]],"forbidden":["c"]}]}|}
  ]

(* The fixture was written before the fingerprint carried
   [Sat.rules_version]. Its header no longer matches, so opening it
   discards it and starts an empty store: every request is solved
   afresh, and no verdict of the older rules is served. *)
let test_old_store_refused () =
  let path =
    Filename.temp_file "xpds_t_render_" ".xpds"
  in
  let ic = open_in_bin "fixtures/store_v2.xpds" in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  let store, info =
    match
      Store.open_rw ~path ~protocol_version:Service.protocol_version
        ~config_fingerprint:default_fp ()
    with
    | Ok pair -> pair
    | Error e -> Alcotest.failf "open_rw: %s" e
  in
  Alcotest.(check bool) "header mismatch invalidates" true
    info.Store.invalidated;
  Alcotest.(check int) "records loaded" 0 info.Store.records;
  let svc = Service.create ~store Service.Config.default in
  List.iter
    (fun line ->
      let reply = Service.handle_line svc line in
      match Json.parse reply with
      | Ok v ->
        Alcotest.(check bool)
          (line ^ " solved afresh") true
          (Json.member "tier" v = Some (Json.Str "solve"))
      | Error e -> Alcotest.failf "reply not JSON (%s): %s" e reply)
    store_requests;
  Alcotest.(check (float 0.)) "no disk hits" 0.
    (Corpus.metric (Service.metrics svc) [ "store"; "disk_hits" ]);
  Store.close store;
  Sys.remove path

let suite =
  ( "render",
    [ prop_node_to_string;
      prop_path_to_string;
      prop_pp_node;
      prop_position_to_string;
      Alcotest.test_case "num_to_string boundary cases" `Quick test_num_cases;
      prop_num_to_string;
      prop_string_escape;
      Alcotest.test_case "default fingerprint pin" `Quick
        test_default_fingerprint_pin;
      Alcotest.test_case "Cache_key pins" `Quick test_cache_key_pins;
      Alcotest.test_case "v2 fixture refused by header mismatch" `Quick
        test_old_store_refused
    ] )
