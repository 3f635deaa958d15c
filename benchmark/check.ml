(* The correctness oracle: every response is judged here, after the
   timed phase.

   - Answers known by construction (families, containment pairs,
     doctype cases) must not be contradicted.
   - Every [sat] answer carries ["verified":true].
   - Every [fails] counterexample is parsed and replayed through
     Xpds.Semantics; a [sat_under_doctype] witness is replayed and
     checked against the doctype.
   - An [equiv] answer agrees with its two directions.
   - A formula for which bounded model search found a model (computed
     before timing) must not be answered [unsat*] / [holds*].
   - An [eval] answer matches the reference semantics where that was
     computed before timing, and every earlier answer to the same query
     otherwise. *)

open Xpds.Ast
module J = Xpds.Json

type outcome =
  | Answer of { definite : bool }
  | Error of string  (** a structured error *)
  | Wrong of string  (** a verdict the oracle contradicts *)

let str k v = match J.member k v with Some (J.Str s) -> Some s | _ -> None
let num k v = match J.member k v with Some (J.Num x) -> Some x | _ -> None

(* Bounded model search over [phi]: [true] iff it found a model. *)
let has_model phi =
  match
    Xpds.Model_search.search ~max_height:2 ~max_width:2 ~max_data:2
      ~max_trees:3000 phi
  with
  | Xpds.Model_search.Sat _ -> true
  | _ -> false

let diff phi psi = And (phi, Not psi)

(* For the cross-checked requests: has_model of each direction the
   answer depends on ([| phi |] for sat, [| phi∧¬psi; psi∧¬phi |] for
   equiv). *)
let models = function
  | Inputs.Sat phi -> Some [| has_model phi |]
  | Inputs.Contains (phi, psi) -> Some [| has_model (diff phi psi) |]
  | Inputs.Equiv (phi, psi) ->
    Some [| has_model (diff phi psi); has_model (diff psi phi) |]
  | _ -> None

type eval_answer = { count : int; root : bool; nodes : string list }

(* The reference answer of an eval request on an inline tree. *)
let reference_eval tree q =
  let env = Xpds.Semantics.env_of_tree tree in
  let sel = Xpds.Semantics.sat_nodes env q in
  { count = List.length sel;
    root = Xpds.Semantics.holds_at_root env q;
    nodes =
      List.filteri (fun i _ -> i < 10) (List.map Xpds.Path.to_string sel)
  }

let sat_class = function
  | "sat" -> `Sat
  | "unsat" | "unsat_bounded" -> `Unsat
  | "unknown" -> `Unknown
  | _ -> `Bad

let contains_class = function
  | "holds" | "holds_bounded" -> `Holds
  | "fails" -> `Fails
  | "unknown" -> `Unknown
  | _ -> `Bad

let tree_of v k =
  match str k v with
  | None -> Stdlib.Error ("no " ^ k)
  | Some s -> Xpds.Data_tree.of_string s

let fail fmt = Printf.ksprintf (fun s -> Wrong s) fmt

(* A sat or sat_under_doctype verdict. *)
let verdict ?doctype ~known ~model phi v =
  match str "verdict" v with
  | None -> fail "no verdict"
  | Some name -> (
    match sat_class name, known, model with
    | `Bad, _, _ -> fail "verdict %S" name
    | `Sat, _, _ when J.member "verified" v <> Some (J.Bool true) ->
      fail "sat without \"verified\":true"
    | `Sat, Some Workload.K_unsat, _ -> fail "sat, known unsat"
    | `Unsat, Some Workload.K_sat, _ -> fail "%s, known sat" name
    | `Unsat, _, Some true -> fail "%s, but a model exists" name
    | `Sat, _, _ -> (
      match doctype with
      | None -> Answer { definite = true }
      | Some rules -> (
        match tree_of v "witness" with
        | Stdlib.Error e -> fail "witness: %s" e
        | Ok w ->
          if not (Xpds.Semantics.check_somewhere w phi) then
            fail "witness does not satisfy the formula"
          else if not (Xpds.Doctype.conforms ~labels:[] rules w) then
            fail "witness does not conform"
          else Answer { definite = true }))
    | cls, _, _ -> Answer { definite = cls <> `Unknown })

(* One containment direction phi ⊑ psi: [Ok (Some holds)] when
   settled. *)
let direction ~known ~model phi psi v =
  match str "answer" v with
  | None -> Stdlib.Error "no answer"
  | Some a -> (
    match contains_class a, known, model with
    | `Bad, _, _ -> Stdlib.Error (Printf.sprintf "answer %S" a)
    | `Holds, Some Workload.K_fails, _ -> Stdlib.Error "holds, known to fail"
    | `Holds, _, Some true -> Stdlib.Error "holds, but a counterexample exists"
    | `Fails, Some Workload.K_holds, _ -> Stdlib.Error "fails, known to hold"
    | `Fails, _, _ -> (
      if J.member "verified" v = Some (J.Bool false) then
        Stdlib.Error "counterexample not verified"
      else
        match tree_of v "counterexample" with
        | Stdlib.Error e -> Stdlib.Error ("counterexample: " ^ e)
        | Ok w ->
          if Xpds.Semantics.check_somewhere w (diff phi psi) then Ok (Some false)
          else Stdlib.Error "counterexample does not replay")
    | `Holds, _, _ -> Ok (Some true)
    | `Unknown, _, _ -> Ok None)

let eval_answer v =
  match (num "count" v, J.member "root" v, J.member "nodes" v) with
  | Some c, Some (J.Bool root), Some (J.Arr l) ->
    Some
      { count = int_of_float c;
        root;
        nodes = List.filter_map (function J.Str s -> Some s | _ -> None) l
      }
  | _ -> None

(* Judge one parsed response. [model.(i)] is the cross-check of
   direction i when the request was sampled; [eval_ref] holds the
   expected eval answers by request text, filled by the first answer
   when no reference was computed. An eval request out of time answers
   the error "deadline exceeded": like a solver's [unknown], it is an
   answer that decides nothing. *)
let judge ~eval_ref ~model (r : Workload.request) v =
  let m i = Option.map (fun a -> a.(i)) model in
  match (str "error" v, r.body) with
  | Some e, (Inputs.Eval_tree _ | Inputs.Eval_doc _)
    when e = Xpds.Emptiness.deadline_exceeded ->
    Answer { definite = false }
  | Some e, _ -> Error e
  | None, _ -> (
    match r.body with
    | Inputs.Sat phi -> verdict ~known:r.known ~model:(m 0) phi v
    | Inputs.Doctype (phi, rules) ->
      verdict ~doctype:rules ~known:r.known ~model:None phi v
    | Inputs.Contains (phi, psi) -> (
      match direction ~known:r.known ~model:(m 0) phi psi v with
      | Stdlib.Error e -> Wrong e
      | Ok settled -> Answer { definite = settled <> None })
    | Inputs.Equiv (phi, psi) -> (
      match (J.member "forward" v, J.member "backward" v) with
      | Some fwd, Some bwd -> (
        match
          ( direction ~known:None ~model:(m 0) phi psi fwd,
            direction ~known:None ~model:(m 1) psi phi bwd )
        with
        | Stdlib.Error e, _ | _, Stdlib.Error e -> Wrong e
        | Ok f, Ok b ->
          let expect =
            match (f, b) with
            | Some false, _ | _, Some false -> Some false
            | Some true, Some true -> Some true
            | _ -> None
          in
          let got =
            match J.member "equivalent" v with
            | Some (J.Bool x) -> Some x
            | _ -> None
          in
          if got <> expect then fail "equivalent disagrees with its directions"
          else Answer { definite = got <> None })
      | _ -> fail "equiv without directions")
    | Inputs.Eval_tree _ | Inputs.Eval_doc _ -> (
      match eval_answer v with
      | None -> fail "malformed eval answer"
      | Some a -> (
        let key = Workload.fields r.body in
        match Hashtbl.find_opt eval_ref key with
        | None ->
          Hashtbl.add eval_ref key a;
          Answer { definite = true }
        | Some e when e = a -> Answer { definite = true }
        | Some e ->
          fail "eval count %d root %b, expected count %d root %b" a.count
            a.root e.count e.root)))
