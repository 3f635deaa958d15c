module Data_tree = Xpds_datatree.Data_tree
module Pp = Xpds_xpath.Pp
module Fragment = Xpds_xpath.Fragment
module Sat = Xpds_decision.Sat
module Emptiness = Xpds_decision.Emptiness

type verdict =
  | Sat of Data_tree.t
  | Unsat
  | Unsat_bounded of string
  | Unknown of string

type t = {
  key : string;
  kind : string;
  scope : string;
  formula : string;
  verdict : verdict;
  fragment : string;
  algorithm : string;
  automaton_q : int;
  automaton_k : int;
  n_states : int;
  n_transitions : int;
  n_mergings : int;
  max_height : int;
  witness_verified : bool option;
  fingerprint : string;
}

(* --- fingerprint --- *)

(* Same recipe as lib/cert: a versioned scheme string carrying every
   payload field, digested together with the canonical formula
   rendering. The formula is appended after a NUL so no payload field
   can alias into it. *)
let fingerprint (r : t) =
  let v =
    match r.verdict with
    | Sat w -> "sat|" ^ Data_tree.to_string w
    | Unsat -> "unsat|"
    | Unsat_bounded why -> "unsat_bounded|" ^ why
    | Unknown why -> "unknown|" ^ why
  in
  (* v2 binds the request kind and scope (the doctype salt) so a record
     can never be replayed as an answer to a different verb, or to the
     same formula under a different doctype. NULs separate the
     variable-length fields so none can alias into its neighbour. *)
  let payload =
    String.concat "|"
      [ "xpds-store-fp-v2";
        String.concat "\x00" [ r.kind; r.scope; v ];
        r.fragment;
        r.algorithm;
        string_of_int r.automaton_q;
        string_of_int r.automaton_k;
        string_of_int r.n_states;
        string_of_int r.n_transitions;
        string_of_int r.n_mergings;
        string_of_int r.max_height;
        (match r.witness_verified with
        | None -> "-"
        | Some b -> string_of_bool b)
      ]
  in
  Digest.to_hex (Digest.string (payload ^ "\x00" ^ r.formula))

(* --- conversion to and from reports --- *)

let of_report ?(kind = "sat") ?(scope = "") ~key ~canon (report : Sat.report) =
  let verdict =
    match report.Sat.verdict with
    | Sat.Sat w -> Some (Sat w)
    | Sat.Unsat -> Some Unsat
    | Sat.Unsat_bounded why -> Some (Unsat_bounded why)
    | Sat.Unknown why -> Some (Unknown why)
  in
  Option.map
    (fun verdict ->
      let stats = report.Sat.stats in
      let r =
        {
          key;
          kind;
          scope;
          formula = Pp.node_to_string canon;
          verdict;
          fragment = Fragment.name report.Sat.fragment;
          algorithm = report.Sat.algorithm;
          automaton_q = report.Sat.automaton_q;
          automaton_k = report.Sat.automaton_k;
          n_states = stats.Emptiness.n_states;
          n_transitions = stats.Emptiness.n_transitions;
          n_mergings = stats.Emptiness.n_mergings;
          max_height = stats.Emptiness.max_height_reached;
          witness_verified = report.Sat.witness_verified;
          fingerprint = "";
        }
      in
      { r with fingerprint = fingerprint r })
    verdict

let to_report ~canon (r : t) : Sat.report =
  {
    Sat.verdict =
      (match r.verdict with
      | Sat w -> Sat.Sat w
      | Unsat -> Sat.Unsat
      | Unsat_bounded why -> Sat.Unsat_bounded why
      | Unknown why -> Sat.Unknown why);
    fragment = Fragment.classify canon;
    algorithm = r.algorithm;
    stats =
      {
        Emptiness.n_states = r.n_states;
        n_transitions = r.n_transitions;
        n_mergings = r.n_mergings;
        max_height_reached = r.max_height;
        n_replayed = 0;
        n_fresh_keys = 0;
        n_applied = 0;
      };
    witness_verified = r.witness_verified;
    automaton_q = r.automaton_q;
    automaton_k = r.automaton_k;
    cert_seed = None;
  }

let verdict_name (r : t) =
  match r.verdict with
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unsat_bounded _ -> "unsat_bounded"
  | Unknown _ -> "unknown"

(* --- JSON --- *)

(* Witnesses are stored in the compact [label:datum(child,...)] syntax
   that [Data_tree.of_string] parses — not the paper notation of
   [Data_tree.to_string], which has no parser. The codec itself now
   lives in [Data_tree.to_compact_string], shared with the wire
   layer. *)
let witness_to_string = Data_tree.to_compact_string

let num i = Json.Num (float_of_int i)

let to_json (r : t) =
  let verdict_fields =
    match r.verdict with
    | Sat w -> [ ("witness", Json.Str (witness_to_string w)) ]
    | Unsat -> []
    | Unsat_bounded why | Unknown why -> [ ("reason", Json.Str why) ]
  in
  Json.Obj
    ([ ("key", Json.Str r.key);
       ("kind", Json.Str r.kind)
     ]
    @ (if r.scope = "" then [] else [ ("scope", Json.Str r.scope) ])
    @ [ ("formula", Json.Str r.formula);
        ("verdict", Json.Str (verdict_name r))
      ]
    @ verdict_fields
    @ [ ("fragment", Json.Str r.fragment);
        ("algorithm", Json.Str r.algorithm);
        ("q", num r.automaton_q);
        ("k", num r.automaton_k);
        ("states", num r.n_states);
        ("transitions", num r.n_transitions);
        ("mergings", num r.n_mergings);
        ("height", num r.max_height)
      ]
    @ (match r.witness_verified with
      | None -> []
      | Some b -> [ ("verified", Json.Bool b) ])
    @ [ ("fp", Json.Str r.fingerprint) ])

let of_json v =
  let str name =
    match Option.bind (Json.member name v) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "record: missing field %S" name)
  in
  let int name =
    match Option.bind (Json.member name v) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "record: missing field %S" name)
  in
  let ( let* ) = Result.bind in
  let* key = str "key" in
  let kind =
    match Option.bind (Json.member "kind" v) Json.to_str with
    | Some k -> k
    | None -> "sat"
  in
  let scope =
    match Option.bind (Json.member "scope" v) Json.to_str with
    | Some s -> s
    | None -> ""
  in
  let* formula = str "formula" in
  let* verdict_tag = str "verdict" in
  let* verdict =
    match verdict_tag with
    | "sat" -> (
      let* w = str "witness" in
      match Data_tree.of_string w with
      | Ok tree -> Ok (Sat tree)
      | Error e -> Error ("record: bad witness: " ^ e))
    | "unsat" -> Ok Unsat
    | "unsat_bounded" ->
      let* why = str "reason" in
      Ok (Unsat_bounded why)
    | "unknown" ->
      let* why = str "reason" in
      Ok (Unknown why)
    | other -> Error (Printf.sprintf "record: unknown verdict %S" other)
  in
  let* fragment = str "fragment" in
  let* algorithm = str "algorithm" in
  let* automaton_q = int "q" in
  let* automaton_k = int "k" in
  let* n_states = int "states" in
  let* n_transitions = int "transitions" in
  let* n_mergings = int "mergings" in
  let* max_height = int "height" in
  let witness_verified =
    Option.bind (Json.member "verified" v) Json.to_bool
  in
  let* fp = str "fp" in
  Ok
    {
      key;
      kind;
      scope;
      formula;
      verdict;
      fragment;
      algorithm;
      automaton_q;
      automaton_k;
      n_states;
      n_transitions;
      n_mergings;
      max_height;
      witness_verified;
      fingerprint = fp;
    }
