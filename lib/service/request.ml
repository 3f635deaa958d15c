module Ast = Xpds_xpath.Ast
module Parser = Xpds_xpath.Parser
module Containment = Xpds_decision.Containment
module Doctype = Xpds_automata.Doctype

let protocol_version = 1

type source = Doc_named of string | Doc_xml of string | Doc_tree of string

type body =
  | Sat of Ast.node
  | Contains of { phi : Ast.node; psi : Ast.node }
  | Equiv of { phi : Ast.node; psi : Ast.node }
  | Doctype of { formula : Ast.node; doctype : Doctype.t }
  | Eval of { query : Ast.node; source : source; limit : int option }

type t = { id : string; timeout_ms : float option; body : body }

let ( let* ) = Result.bind

let rec map_m f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_m f rest in
    Ok (y :: ys)

(* --- body decoders --- *)

let formula name v =
  match Option.bind (Json.member name v) Json.to_str with
  | None -> Error (Printf.sprintf "missing %S field" name)
  | Some text -> (
    match Parser.formula_of_string text with
    | Error e -> Error (Printf.sprintf "bad %s: %s" name e)
    | Ok f -> Ok (Ast.as_node f))

(* The containment verbs carry two formulas, ϕ ("phi") and ψ ("psi").
   The decoders on the request path match rather than bind, so a
   request allocates no continuation closures. *)
let phi_psi v =
  match formula "phi" v with
  | Error e -> Error e
  | Ok phi -> ( match formula "psi" v with Error e -> Error e | Ok psi -> Ok (phi, psi))

let rule_fields = [ "parent"; "at_least"; "forbidden" ]

(* A doctype on the wire is an array of closed rule objects:
   [{"parent":"a", "at_least":[[2,"b"]], "forbidden":["c"]}]. Every
   structural defect — and a rule set {!Doctype.validate} rejects — is
   a parse-time [Error] answered as a structured {"error"} line, never
   a crash-isolated [Unknown "crash: ..."] report. *)
let doctype_rules v =
  let rule = function
    | Json.Obj fields as r -> (
      match
        List.find_opt
          (fun (k, _) -> not (List.exists (String.equal k) rule_fields))
          fields
      with
      | Some (k, _) ->
        Error
          (Printf.sprintf
             "bad doctype: unknown rule field %S (rules accept: %s)" k
             (String.concat ", " rule_fields))
      | None ->
        let* parent =
          match Option.bind (Json.member "parent" r) Json.to_str with
          | Some s -> Ok s
          | None -> Error "bad doctype: rule missing \"parent\" (a string)"
        in
        let* at_least =
          match Json.member "at_least" r with
          | None -> Ok []
          | Some (Json.Arr items) ->
            map_m
              (function
                | Json.Arr [ n; Json.Str b ] when Json.to_int n <> None ->
                  Ok (Option.get (Json.to_int n), b)
                | _ ->
                  Error
                    "bad doctype: \"at_least\" entries are [count, \
                     \"label\"] pairs")
              items
          | Some _ -> Error "bad doctype: \"at_least\" must be an array of pairs"
        in
        let* forbidden =
          match Json.member "forbidden" r with
          | None -> Ok []
          | Some (Json.Arr items) ->
            map_m
              (function
                | Json.Str b -> Ok b
                | _ -> Error "bad doctype: \"forbidden\" entries are label strings")
              items
          | Some _ -> Error "bad doctype: \"forbidden\" must be an array of labels"
        in
        Ok { Doctype.parent; at_least; forbidden })
    | _ -> Error "bad doctype: each rule must be an object"
  in
  match Json.member "doctype" v with
  | None -> Error "missing \"doctype\" field (an array of rule objects)"
  | Some (Json.Arr rules) -> (
    let* rules = map_m rule rules in
    match Doctype.validate rules with
    | Ok () -> Ok rules
    | Error e -> Error (Printf.sprintf "bad doctype: %s" e))
  | Some _ -> Error "\"doctype\" must be an array of rule objects"

(* An eval request addresses exactly one document: a registered name
   ("doc"), inline XML ("xml"), or inline data-tree syntax ("tree"). *)
let eval_source v =
  let str_field name =
    match Json.member name v with
    | None -> Ok None
    | Some (Json.Str s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "%S must be a string" name)
  in
  let exactly_one =
    "an eval request carries exactly one of \"doc\", \"xml\", \"tree\""
  in
  match (str_field "doc", str_field "xml", str_field "tree") with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
  | Ok (Some name), Ok None, Ok None -> Ok (Doc_named name)
  | Ok None, Ok (Some src), Ok None -> Ok (Doc_xml src)
  | Ok None, Ok None, Ok (Some src) -> Ok (Doc_tree src)
  | Ok None, Ok None, Ok None -> Error ("missing document: " ^ exactly_one)
  | Ok _, Ok _, Ok _ -> Error ("ambiguous document: " ^ exactly_one)

let eval_body v =
  match formula "formula" v with
  | Error e -> Error e
  | Ok query -> (
    match eval_source v with
    | Error e -> Error e
    | Ok source -> (
      match Json.member "limit" v with
      | Some j when Json.to_int j = None -> Error "\"limit\" must be an integer"
      | limit -> Ok (Eval { query; source; limit = Option.bind limit Json.to_int })))

(* --- the request table: one row per kind --- *)

type row = {
  name : string;
  fields : string list;  (** the kind's closed schema, in wire order *)
  decode : Json.t -> (body, string) result;
}

let phi_psi_fields = [ "v"; "id"; "kind"; "phi"; "psi"; "timeout_ms" ]

let table =
  [ { name = "sat";
      fields = [ "v"; "id"; "kind"; "formula"; "timeout_ms" ];
      decode = (fun v -> Result.map (fun f -> Sat f) (formula "formula" v))
    };
    { name = "eval";
      fields =
        [ "v"; "id"; "kind"; "formula"; "doc"; "xml"; "tree"; "timeout_ms"; "limit" ];
      decode = eval_body
    };
    { name = "contains";
      fields = phi_psi_fields;
      decode =
        (fun v -> Result.map (fun (phi, psi) -> Contains { phi; psi }) (phi_psi v))
    };
    { name = "equiv";
      fields = phi_psi_fields;
      decode =
        (fun v -> Result.map (fun (phi, psi) -> Equiv { phi; psi }) (phi_psi v))
    };
    { name = "sat_under_doctype";
      fields = [ "v"; "id"; "kind"; "formula"; "doctype"; "timeout_ms" ];
      decode =
        (fun v ->
          match formula "formula" v with
          | Error e -> Error e
          | Ok formula -> (
            match doctype_rules v with
            | Error e -> Error e
            | Ok doctype -> Ok (Doctype { formula; doctype })))
    }
  ]

let id_of_json v =
  match Json.member "id" v with
  | Some (Json.Str s) -> s
  | Some (Json.Num f) -> Json.num_to_string f
  | _ -> ""

let id_of_line line =
  match Json.parse line with
  | Ok v -> ( match id_of_json v with "" -> None | id -> Some id)
  | Error _ -> None
  | exception _ -> None

let v1 = Json.Num (float_of_int protocol_version)

let rec row_named k = function
  | [] -> None
  | row :: rest -> if row.name = k then Some row else row_named k rest

(* A request object of a known kind: unknown fields first, then the
   version, then the body. Each row's schema is closed — an unknown
   field is an error (not a silent ignore), so a client typo'd
   "timeout" or a v2-only field fails loudly instead of quietly
   changing semantics. *)
let of_row row fields v =
  match
    List.find_opt
      (fun (k, _) -> not (List.exists (String.equal k) row.fields))
      fields
  with
  | Some (k, _) ->
    Error
      (Printf.sprintf "unknown field %S (protocol v%d %s requests accept: %s)" k
         protocol_version row.name (String.concat ", " row.fields))
  | None -> (
    match Json.member "v" v with
    | Some other when other <> v1 ->
      Error
        (Printf.sprintf "unsupported protocol version %s (this server speaks v%d)"
           (Json.to_string other) protocol_version)
    | _ -> (
      (* an absent "v" means v1: the pre-versioning wire format is
         exactly the v1 schema, so old clients keep working *)
      match row.decode v with
      | Error e -> Error e
      | Ok body ->
        Ok
          { id = id_of_json v;
            timeout_ms = Option.bind (Json.member "timeout_ms" v) Json.to_float;
            body
          }))

let of_line line =
  match Json.parse line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok (Json.Obj fields as v) -> (
    match Json.member "kind" v with
    | None -> of_row (List.hd table) fields v
    | Some (Json.Str k) -> (
      match row_named k table with
      | Some row -> of_row row fields v
      | None ->
        Error
          (Printf.sprintf "unknown request kind %S (protocol v%d speaks: %s)" k
             protocol_version
             (String.concat ", " (List.map (fun row -> row.name) table))))
    | Some _ -> Error "\"kind\" must be a string")
  | Ok _ -> Error "request must be a JSON object"

(* --- what a body is keyed on --- *)

let directions phi psi = (Contains { phi; psi }, Contains { phi = psi; psi = phi })

type key = { kind : string; scope : string; canon : Ast.node; digest : Cache_key.t }

let key ~config_fingerprint body =
  let kind, scope, formula =
    match body with
    | Sat f -> ("sat", "", f)
    | Contains { phi; psi } | Equiv { phi; psi } ->
      ("contains", "", Containment.query phi psi)
    | Doctype { formula; doctype } ->
      ("sat_under_doctype", Doctype.canonical_string doctype, formula)
    | Eval { query; source; _ } ->
      let scope =
        match source with
        | Doc_named n -> "n:" ^ n
        | Doc_xml s -> "x:" ^ s
        | Doc_tree s -> "t:" ^ s
      in
      ("eval", scope, query)
  in
  let canon, digest = Cache_key.make ~kind ~salt:scope ~config_fingerprint formula in
  { kind; scope; canon; digest }
