module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder
module Translate = Xpds_automata.Translate
module Label = Xpds_datatree.Label
module Data_tree = Xpds_datatree.Data_tree
module Ast = Xpds_xpath.Ast
module Semantics = Xpds_xpath.Semantics
module Ext_state = Xpds_decision.Ext_state
module Sat = Xpds_decision.Sat
module Bounds = Xpds_decision.Bounds
module Cache_key = Xpds_service.Cache_key

type bounds = Bounds.t = {
  width : int option;
  t0 : int option;
  dup_cap : int option;
  merge_budget : int option;
}

type payload =
  | Sat_cert of Data_tree.t
  | Unsat_cert of {
      bounds : bounds;
      q_card : int;
      k_card : int;
      basis : Ext_state.t array;
    }

type t = {
  formula : string;
  labels : string list;
  fingerprint : string;
  payload : payload;
}

type verdict =
  | Cert_sat
  | Cert_unsat
  | Cert_unsat_bounded of string

let pp_verdict ppf = function
  | Cert_sat -> Format.pp_print_string ppf "certified SAT"
  | Cert_unsat -> Format.pp_print_string ppf "certified UNSAT"
  | Cert_unsat_bounded why ->
    Format.fprintf ppf "certified UNSAT within bounds (%s)" why

(* --- fingerprint --- *)

(* The fingerprint binds the canonical formula to the certificate's
   polarity, its alphabet and, for UNSAT, its bounds: a certificate
   replayed against a different instance, with doctored bounds, or with
   a tampered label list (which would rebuild a different automaton) is
   rejected before any expensive checking. *)
let opt_str = function None -> "-" | Some n -> string_of_int n

let config_string ~labels = function
  | `Sat -> Printf.sprintf "xpds-cert-v1|sat|%s" (String.concat "," labels)
  | `Unsat b ->
    Printf.sprintf "xpds-cert-v1|unsat|w=%s|t0=%s|dup=%s|mb=%s|%s"
      (opt_str b.width) (opt_str b.t0) (opt_str b.dup_cap)
      (opt_str b.merge_budget) (String.concat "," labels)

let fingerprint_of ~labels tag eta =
  let _, digest =
    Cache_key.make ~config_fingerprint:(config_string ~labels tag) eta
  in
  Cache_key.hex digest

(* --- emission --- *)

let of_report (r : Sat.report) =
  match r.Sat.cert_seed with
  | None ->
    Error "report carries no certificate seed (run with ~certificate:true)"
  | Some seed -> (
    let formula = Xpds_xpath.Pp.node_to_string seed.Sat.cs_formula in
    let labels = List.map Label.to_string seed.Sat.cs_labels in
    match r.Sat.verdict with
    | Sat.Sat w ->
      Ok
        {
          formula;
          labels;
          fingerprint = fingerprint_of ~labels `Sat seed.Sat.cs_formula;
          payload = Sat_cert w;
        }
    | Sat.Unsat | Sat.Unsat_bounded _ -> (
      match seed.Sat.cs_basis with
      | None ->
        Error
          "no saturated basis: the fixpoint was height-capped or stopped \
           on a resource limit, so no inductive certificate exists"
      | Some basis ->
        let bounds = seed.Sat.cs_bounds in
        let k_card =
          if Array.length basis > 0 then Bitv.width basis.(0).Ext_state.many
          else 0
        in
        let q_card =
          if Array.length basis > 0 then
            Bitv.width basis.(0).Ext_state.states
          else 0
        in
        Ok
          {
            formula;
            labels;
            fingerprint =
              fingerprint_of ~labels (`Unsat bounds) seed.Sat.cs_formula;
            payload = Unsat_cert { bounds; q_card; k_card; basis };
          })
    | Sat.Unknown why -> Error ("no certificate for an UNKNOWN verdict: " ^ why))

(* --- checking --- *)

module StateTbl = Hashtbl.Make (struct
  type t = Ext_state.t

  let equal = Ext_state.equal
  let hash = Ext_state.hash
end)

exception Reject of string
exception Out_of_budget

(* Non-decreasing index sequences of length w over 0..n — every
   multiset of basis states of size w, children in basis (discovery)
   order, exactly as the engine applied its transitions. *)
let iter_combos ~n ~w f =
  let combo = Array.make w 0 in
  let rec go pos lo =
    if pos = w then f (Array.copy combo)
    else
      for id = lo to n do
        combo.(pos) <- id;
        go (pos + 1) id
      done
  in
  if w > 0 then go 0 0

let check_unsat ~work_budget eta label_names bounds (basis : Ext_state.t array)
    =
  let labels = List.map Label.of_string label_names in
  let m =
    Translate.of_node ~labels
      (Ast.Exists (Ast.Filter (Ast.Axis Ast.Descendant, eta)))
  in
  let k_card = m.Bip.pf.Pathfinder.n_states in
  let q_card = m.Bip.q_card in
  (* Shape: the recorded states must be over this automaton's Q and K —
     otherwise the bit sets are meaningless. *)
  Array.iter
    (fun (s : Ext_state.t) ->
      if
        Bitv.width s.Ext_state.states <> q_card
        || Bitv.width s.Ext_state.many <> k_card
        || Bitv.width s.Ext_state.eq <> k_card * k_card
      then
        raise
          (Reject
             "basis state shape does not match the automaton of the \
              recorded formula"))
    basis;
  (* (a) No accepting member. *)
  Array.iteri
    (fun i (s : Ext_state.t) ->
      if Ext_state.accepting s m.Bip.final then
        raise
          (Reject (Printf.sprintf "basis state %d is accepting" i)))
    basis;
  let member = StateTbl.create (2 * Array.length basis + 1) in
  Array.iter (fun s -> StateTbl.replace member s ()) basis;
  let nv = Naive.create m in
  let work = ref 0 in
  let bump () =
    incr work;
    if !work > work_budget then raise Out_of_budget
  in
  let require_member what states =
    List.iter
      (fun s ->
        if not (StateTbl.mem member s) then
          raise
            (Reject
               (Printf.sprintf
                  "%s produces an extended state outside the basis" what)))
      states
  in
  (* (b) Leaves. *)
  List.iter
    (fun label ->
      bump ();
      require_member
        (Printf.sprintf "leaf transition on label %s" (Label.to_string label))
        (Naive.leaves ?t0:bounds.t0 ?dup_cap:bounds.dup_cap nv label))
    m.Bip.labels;
  (* (c) Inductive closure: every transition from basis states stays in
     the basis. *)
  let n = Array.length basis - 1 in
  for w = 1 to Bounds.width m bounds do
    iter_combos ~n ~w (fun combo ->
        let children = Array.map (fun id -> basis.(id)) combo in
        let items = Naive.visible_items nv children in
        List.iter
          (fun merging ->
            List.iter
              (fun label ->
                bump ();
                require_member
                  (Printf.sprintf "transition on label %s over children [%s]"
                     (Label.to_string label)
                     (String.concat ";"
                        (Array.to_list (Array.map string_of_int combo))))
                  (Naive.apply ?t0:bounds.t0 ?dup_cap:bounds.dup_cap nv label
                     children merging))
              m.Bip.labels)
          (Naive.mergings ?budget:bounds.merge_budget items))
  done;
  (* The basis is inductive and rejecting; grade the claim by the
     recorded bounds. *)
  if Bounds.paper_complete m bounds then Cert_unsat
  else
    Cert_unsat_bounded
      (Printf.sprintf
         "inductive for width %d (paper bound %d), t0 %s (paper %d)%s%s"
         (Bounds.width m bounds) (Bounds.paper_width m)
         (match bounds.t0 with None -> "unbounded" | Some t -> string_of_int t)
         (Bounds.paper_t0 m)
         (match bounds.dup_cap with
         | None -> ""
         | Some c -> Printf.sprintf ", dup_cap %d" c)
         (match bounds.merge_budget with
         | None -> ""
         | Some b -> Printf.sprintf ", merge budget %d" b))

let check ?(work_budget = 2_000_000) cert =
  match Xpds_xpath.Parser.node_of_string cert.formula with
  | Error e -> Error ("recorded formula does not parse: " ^ e)
  | Ok eta -> (
    let tag =
      match cert.payload with
      | Sat_cert _ -> `Sat
      | Unsat_cert { bounds; _ } -> `Unsat bounds
    in
    if
      not
        (String.equal
           (fingerprint_of ~labels:cert.labels tag eta)
           cert.fingerprint)
    then
      Error
        "fingerprint mismatch: certificate does not match its formula and \
         bounds"
    else
      match cert.payload with
      | Sat_cert w ->
        if Semantics.check_somewhere w eta then Ok Cert_sat
        else
          Error
            "witness replay failed: the formula holds nowhere in the \
             recorded tree"
      | Unsat_cert { bounds; basis; q_card = _; k_card = _ } -> (
        try Ok (check_unsat ~work_budget eta cert.labels bounds basis) with
        | Reject why -> Error why
        | Out_of_budget ->
          Error
            (Printf.sprintf
               "inconclusive: work budget of %d naive transitions exhausted"
               work_budget)))

(* --- serialization --- *)

let int_json i = Json.Num (float_of_int i)
let bitv_json b = Json.Arr (List.map int_json (Bitv.elements b))

let opt_json = function None -> Json.Null | Some i -> int_json i

let rec tree_json (t : Data_tree.t) =
  Json.Obj
    [
      ("label", Json.Str (Label.to_string t.Data_tree.label));
      ("data", int_json t.Data_tree.data);
      ("children", Json.Arr (List.map tree_json t.Data_tree.children));
    ]

let ext_json (s : Ext_state.t) =
  Json.Obj
    [
      ("states", bitv_json s.Ext_state.states);
      ("eq", bitv_json s.Ext_state.eq);
      ("neq", bitv_json s.Ext_state.neq);
      ( "values",
        Json.Arr (Array.to_list (Array.map bitv_json s.Ext_state.values)) );
      ( "unique",
        Json.Arr (Array.to_list (Array.map int_json s.Ext_state.unique)) );
      ("many", bitv_json s.Ext_state.many);
    ]

let to_json cert =
  let common =
    [
      ("format", Json.Str "xpds-cert");
      ("version", int_json 1);
      ( "verdict",
        Json.Str
          (match cert.payload with
          | Sat_cert _ -> "sat"
          | Unsat_cert _ -> "unsat") );
      ("formula", Json.Str cert.formula);
      ("labels", Json.Arr (List.map (fun l -> Json.Str l) cert.labels));
      ("fingerprint", Json.Str cert.fingerprint);
    ]
  in
  match cert.payload with
  | Sat_cert w -> Json.Obj (common @ [ ("witness", tree_json w) ])
  | Unsat_cert { bounds; q_card; k_card; basis } ->
    Json.Obj
      (common
      @ [
          ( "bounds",
            Json.Obj
              [
                ("width", opt_json bounds.width);
                ("t0", opt_json bounds.t0);
                ("dup_cap", opt_json bounds.dup_cap);
                ("merge_budget", opt_json bounds.merge_budget);
              ] );
          ("q_card", int_json q_card);
          ("k_card", int_json k_card);
          ("basis", Json.Arr (Array.to_list (Array.map ext_json basis)));
        ])

let to_string cert = Json.to_string (to_json cert)

(* Parsing helpers: every missing or ill-typed field is a hard error —
   a certificate is a proof object, not a lenient config file. *)
let ( let* ) r f = Result.bind r f

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let opt_field name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_int v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name))

let int_list name j =
  let* items = field name Json.to_list j in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match Json.to_int x with
      | Some i -> go (i :: acc) rest
      | None -> Error (Printf.sprintf "non-integer entry in %S" name))
  in
  go [] items

let bitv_of ~width name j =
  match Json.to_list j with
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  | Some items -> (
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Json.to_int x with
        | Some i -> go (i :: acc) rest
        | None -> Error (Printf.sprintf "non-integer entry in %S" name))
    in
    let* ints = go [] items in
    match Bitv.of_list width ints with
    | b -> Ok b
    | exception Invalid_argument _ ->
      Error (Printf.sprintf "out-of-range bit in %S" name))

let bitv_field ~width name j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  | Some v -> bitv_of ~width name v

let rec tree_of_json j =
  let* label = field "label" Json.to_str j in
  let* data = field "data" Json.to_int j in
  let* kids = field "children" Json.to_list j in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | k :: rest ->
      let* t = tree_of_json k in
      go (t :: acc) rest
  in
  let* children = go [] kids in
  Ok (Data_tree.make (Label.of_string label) data children)

let ext_of_json ~q_card ~k_card j =
  let* states = bitv_field ~width:q_card "states" j in
  let* eq = bitv_field ~width:(k_card * k_card) "eq" j in
  let* neq = bitv_field ~width:(k_card * k_card) "neq" j in
  let* value_items = field "values" Json.to_list j in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest ->
      let* b = bitv_of ~width:k_card "values" v in
      go (b :: acc) rest
  in
  let* values = go [] value_items in
  let* unique = int_list "unique" j in
  let* many = bitv_field ~width:k_card "many" j in
  if List.length unique <> k_card then
    Error "\"unique\" length does not match k_card"
  else
    match
      Ext_state.make ~states ~eq ~neq
        ~values:(Array.of_list values)
        ~unique:(Array.of_list unique)
        ~many
    with
    | s -> Ok s
    | exception Invalid_argument why ->
      Error ("invalid extended state: " ^ why)

let of_json j =
  let* format = field "format" Json.to_str j in
  let* version = field "version" Json.to_int j in
  if format <> "xpds-cert" then Error "not an xpds certificate"
  else if version <> 1 then
    Error (Printf.sprintf "unsupported certificate version %d" version)
  else
    let* verdict = field "verdict" Json.to_str j in
    let* formula = field "formula" Json.to_str j in
    let* label_items = field "labels" Json.to_list j in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | l :: rest -> (
        match Json.to_str l with
        | Some s -> go (s :: acc) rest
        | None -> Error "non-string entry in \"labels\"")
    in
    let* labels = go [] label_items in
    let* fingerprint = field "fingerprint" Json.to_str j in
    let* payload =
      match verdict with
      | "sat" ->
        let* w =
          match Json.member "witness" j with
          | Some wj -> tree_of_json wj
          | None -> Error "missing field \"witness\""
        in
        Ok (Sat_cert w)
      | "unsat" ->
        let* bj =
          match Json.member "bounds" j with
          | Some b -> Ok b
          | None -> Error "missing field \"bounds\""
        in
        let* width = field "width" Json.to_int bj in
        let* t0 = opt_field "t0" bj in
        let* dup_cap = opt_field "dup_cap" bj in
        let* merge_budget = opt_field "merge_budget" bj in
        let* q_card = field "q_card" Json.to_int j in
        let* k_card = field "k_card" Json.to_int j in
        if q_card < 0 || k_card < 0 then Error "negative automaton cardinality"
        else
          let* basis_items = field "basis" Json.to_list j in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | s :: rest ->
              let* st = ext_of_json ~q_card ~k_card s in
              go (st :: acc) rest
          in
          let* basis = go [] basis_items in
          Ok
            (Unsat_cert
               {
                 bounds = { width = Some width; t0; dup_cap; merge_budget };
                 q_card;
                 k_card;
                 basis = Array.of_list basis;
               })
      | other -> Error (Printf.sprintf "unknown verdict %S" other)
    in
    Ok { formula; labels; fingerprint; payload }

let of_string s =
  let* j = Json.parse s in
  of_json j

let to_file path cert =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string cert);
      output_char oc '\n')

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e
