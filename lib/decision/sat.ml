module Fragment = Xpds_xpath.Fragment
module Semantics = Xpds_xpath.Semantics
module Translate = Xpds_automata.Translate
module Bip = Xpds_automata.Bip
module Bip_run = Xpds_automata.Bip_run
module Pathfinder = Xpds_automata.Pathfinder
module Data_tree = Xpds_datatree.Data_tree

type verdict =
  | Sat of Data_tree.t
  | Unsat
  | Unsat_bounded of string
  | Unknown of string

type cert_seed = {
  cs_formula : Xpds_xpath.Ast.node;
      (** the simplified formula the automaton was translated from *)
  cs_labels : Xpds_datatree.Label.t list;  (** the automaton alphabet Σ *)
  cs_width : int;
  cs_t0 : int option;
  cs_dup_cap : int option;
  cs_merge_budget : int option;
  cs_basis : Ext_state.t array option;
      (** the saturated extended-state set, when the fixpoint saturated *)
}

type report = {
  verdict : verdict;
  fragment : Fragment.t;
  algorithm : string;
  stats : Emptiness.stats;
  witness_verified : bool option;
  automaton_q : int;
  automaton_k : int;
  cert_seed : cert_seed option;
}

module Options = struct
  type t = {
    width : int;
    t0 : int option;
    dup_cap : int option;
    merge_budget : int option;
    max_states : int;
    max_transitions : int;
    should_stop : (unit -> bool) option;
    on_phase : string -> unit;
    verify : bool;
    extra_labels : Xpds_datatree.Label.t list;
    certificate : bool;
  }

  let default =
    {
      width = 3;
      t0 = Some 6;
      dup_cap = Some 2;
      merge_budget = Some 5;
      max_states = Emptiness.default_config.Emptiness.max_states;
      max_transitions = Emptiness.default_config.Emptiness.max_transitions;
      should_stop = None;
      on_phase = ignore;
      verify = true;
      extra_labels = [];
      certificate = false;
    }

  let with_width width o = { o with width }
  let with_t0 t0 o = { o with t0 }
  let with_dup_cap dup_cap o = { o with dup_cap }
  let with_merge_budget merge_budget o = { o with merge_budget }
  let with_max_states max_states o = { o with max_states }
  let with_max_transitions max_transitions o = { o with max_transitions }
  let with_should_stop should_stop o = { o with should_stop }
  let with_on_phase on_phase o = { o with on_phase }
  let with_verify verify o = { o with verify }
  let with_extra_labels extra_labels o = { o with extra_labels }
  let with_certificate certificate o = { o with certificate }
end

let rules_version = 2

let saturated_reason width m =
  "saturated at width " ^ string_of_int width ^ " (paper bound "
  ^ string_of_int (Emptiness.paper_width m)
  ^ ")"

let engine_config o max_height =
  {
    Emptiness.width = Some o.Options.width;
    t0 = o.Options.t0;
    dup_cap = o.Options.dup_cap;
    merge_budget = o.Options.merge_budget;
    max_height;
    max_states = o.Options.max_states;
    max_transitions = o.Options.max_transitions;
    should_stop = o.Options.should_stop;
  }

(* The verdict of a width-bounded saturated search of [m]: certified
   only when the widths meet the paper's bounds (the height bound, when
   there is one, is the fragment's exact poly-depth bound). *)
let saturated_verdict o m =
  let paper_complete_widths =
    o.Options.width >= Emptiness.paper_width m
    && (match o.Options.t0 with
       | Some t -> t >= Transition.t0_default m
       | None -> true)
    && o.Options.dup_cap = None
    && o.Options.merge_budget = None
  in
  if paper_complete_widths then Unsat
  else Unsat_bounded (saturated_reason o.Options.width m)

(* The automaton, height bound and engine configuration of one search
   of the simplified [eta]. Certificate mode needs the fixpoint to
   saturate genuinely: a height-capped basis is not inductively closed
   (the engine may still discover states one level up), so the
   Theorem-6 height shortcut is turned off and the search runs to a
   true fixpoint within the width/t0/dup/merge bounds. *)
let prepare o eta =
  let bound =
    if o.Options.certificate then None else Fragment.poly_depth_bound eta
  in
  let m =
    Translate.of_node ~labels:o.Options.extra_labels
      (Xpds_xpath.Ast.Exists
         (Xpds_xpath.Ast.Filter (Xpds_xpath.Ast.Axis Descendant, eta)))
  in
  (m, bound, engine_config o bound)

let algorithm_name o m bound =
  if Emptiness.data_free m then "data-free union closure"
  else
    match bound with
    | Some b ->
      "height-bounded fixpoint (Thm 6, H=" ^ string_of_int b ^ ", width="
      ^ string_of_int o.Options.width ^ ")"
    | None ->
      "full fixpoint (Thm 4, width=" ^ string_of_int o.Options.width ^ ")"

let general_search ?(options = Options.default) eta =
  let m, _, config = prepare options (Xpds_xpath.Rewrite.simplify eta) in
  (m, config)

(* --- the data-free relaxation ---

   [relax true ϕ] over-approximates ϕ and [relax false ϕ]
   under-approximates it, node by node on every data tree: a positive
   [α ~ β] needs an [α]-endpoint and a [β]-endpoint, so it becomes
   [⟨α⟩ ∧ ⟨β⟩]; a negative one becomes [⊥]. Negation flips the
   polarity, and every other connective, path filter and guard is
   monotone, so the polarity passes into them unchanged. *)
let rec relax pos (phi : Xpds_xpath.Ast.node) : Xpds_xpath.Ast.node =
  match phi with
  | True | False | Lab _ -> phi
  | Not a -> Not (relax (not pos) a)
  | And (a, b) -> And (relax pos a, relax pos b)
  | Or (a, b) -> Or (relax pos a, relax pos b)
  | Exists p -> Exists (relax_path pos p)
  | Cmp (p, _, q) ->
    if pos then And (Exists (relax_path pos p), Exists (relax_path pos q))
    else False

and relax_path pos (p : Xpds_xpath.Ast.path) : Xpds_xpath.Ast.path =
  match p with
  | Axis _ -> p
  | Seq (a, b) -> Seq (relax_path pos a, relax_path pos b)
  | Union (a, b) -> Union (relax_path pos a, relax_path pos b)
  | Filter (a, phi) -> Filter (relax_path pos a, relax pos phi)
  | Guard (phi, a) -> Guard (relax pos phi, relax_path pos a)
  | Star a -> Star (relax_path pos a)

let data_free_relaxation = relax true

let rec has_negation (phi : Xpds_xpath.Ast.node) =
  match phi with
  | True | False | Lab _ -> false
  | Not _ -> true
  | And (a, b) | Or (a, b) -> has_negation a || has_negation b
  | Exists p -> path_has_negation p
  | Cmp (p, _, q) -> path_has_negation p || path_has_negation q

and path_has_negation (p : Xpds_xpath.Ast.path) =
  match p with
  | Axis _ -> false
  | Seq (a, b) | Union (a, b) -> path_has_negation a || path_has_negation b
  | Filter (a, phi) | Guard (phi, a) -> has_negation phi || path_has_negation a
  | Star a -> path_has_negation a

let relaxation_prefix = "data-free relaxation: "

(* Decide the relaxation of the simplified [eta] as [decide] would, and
   keep its answer only when it is unsatisfiable: every model of ϕ is a
   model of ϕ′. ϕ′ is data-free, so its search is the exact union
   closure and an empty ϕ′ is an unconditional [Unsat]. Skipped in
   certificate mode (the basis must come from ϕ's own automaton), for
   data-free ϕ, and when the simplified ϕ′ is negation-free (then it
   can be unsatisfiable only through a label clash, so the extra search
   seldom pays for itself). [None] leaves the run in its "translate"
   phase, for ϕ's own translation. *)
let decide_relaxation o fragment eta =
  if o.Options.certificate || not (Fragment.features eta).Fragment.uses_data
  then None
  else
    let relaxed = Xpds_xpath.Rewrite.simplify (data_free_relaxation eta) in
    if not (has_negation relaxed) then None
    else
      let m, bound, config = prepare o relaxed in
      o.Options.on_phase "fixpoint";
      match Emptiness.check_with_stats ~config m with
      | Emptiness.Empty, stats ->
        Some
          {
            verdict = Unsat;
            fragment;
            algorithm = relaxation_prefix ^ algorithm_name o m bound;
            stats;
            witness_verified = None;
            automaton_q = m.Bip.q_card;
            automaton_k = m.Bip.pf.Pathfinder.n_states;
            cert_seed = None;
          }
      | _ ->
        o.Options.on_phase "translate";
        None

(* Both replays of a witness: the reference semantics of [eta] and a
   run of its automaton [m]. *)
let witness_holds m eta w =
  Semantics.check_somewhere w eta && Bip_run.accepts m w

(* The general engine on the simplified [eta]. *)
let decide_general o fragment eta =
  let m, bound, config = prepare o eta in
  let outcome, stats, basis =
    o.Options.on_phase "fixpoint";
    if o.Options.certificate then Emptiness.check_with_basis ~config m
    else
      let outcome, stats = Emptiness.check_with_stats ~config m in
      (outcome, stats, None)
  in
  let verdict, witness_verified =
    match outcome with
    | Emptiness.Nonempty w ->
      o.Options.on_phase "verify";
      let verified =
        if o.Options.verify then Some (witness_holds m eta w) else None
      in
      (Sat w, verified)
    | Emptiness.Empty -> (Unsat, None)
    | Emptiness.Bounded_empty -> (saturated_verdict o m, None)
    | Emptiness.Resource_limit what -> (Unknown what, None)
  in
  let cert_seed =
    if o.Options.certificate then
      Some
        {
          cs_formula = eta;
          cs_labels = m.Bip.labels;
          cs_width = o.Options.width;
          cs_t0 = o.Options.t0;
          cs_dup_cap = o.Options.dup_cap;
          cs_merge_budget = o.Options.merge_budget;
          cs_basis = basis;
        }
    else None
  in
  {
    verdict;
    fragment;
    algorithm = algorithm_name o m bound;
    stats;
    witness_verified;
    automaton_q = m.Bip.q_card;
    automaton_k = m.Bip.pf.Pathfinder.n_states;
    cert_seed;
  }

let decide ?(options = Options.default) eta =
  let o = options in
  o.Options.on_phase "translate";
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let fragment = Fragment.classify eta in
  match decide_relaxation o fragment eta with
  | Some report -> report
  | None -> decide_general o fragment eta

module Doctype = Xpds_automata.Doctype

let decide_under_doctype ?(options = Options.default) ~doctype eta =
  (* Certificate mode is not defined for the intersection (the basis
     checker replays the bare-formula automaton); force it off rather
     than emit a certificate that proves the wrong language empty. *)
  let o = { options with Options.certificate = false } in
  o.Options.on_phase "translate";
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let fragment = Fragment.classify eta in
  (* The Theorem-6 poly-depth height bound is justified for the bare
     formula only: the doctype can force strictly deeper models (an
     at_least rule growing a chain under every node the formula
     touches), so the doctype-restricted search always runs the full
     Theorem-4 fixpoint. *)
  let labels =
    o.Options.extra_labels
    @ List.map Xpds_datatree.Label.of_string (Doctype.rule_labels doctype)
  in
  let m0 = Translate.of_node ~labels
      (Xpds_xpath.Ast.Exists
         (Xpds_xpath.Ast.Filter (Xpds_xpath.Ast.Axis Descendant, eta)))
  in
  (* Σ of the translation already covers the rules' alphabet by
     construction, so [to_bip] inside [restrict] cannot raise on label
     coverage; an invalid rule set still raises [Invalid_argument] —
     wire callers validate first. *)
  o.Options.on_phase "doctype_restrict";
  let m = Doctype.restrict m0 ~labels:m0.Bip.labels doctype in
  let config = engine_config o None in
  let algorithm = "doctype-restricted (§4.1) " ^ algorithm_name o m None in
  o.Options.on_phase "fixpoint";
  let outcome, stats = Emptiness.check_with_stats ~config m in
  let conforming t = Doctype.conforms ~labels:m0.Bip.labels doctype t in
  let verdict, witness_verified =
    match outcome with
    | Emptiness.Nonempty w ->
      o.Options.on_phase "verify";
      let verified =
        if o.Options.verify then
          Some
            (Semantics.check_somewhere w eta
            && conforming w && Bip_run.accepts m w)
        else None
      in
      (Sat w, verified)
    | Emptiness.Empty -> (Unsat, None)
    | Emptiness.Bounded_empty -> (saturated_verdict o m, None)
    | Emptiness.Resource_limit what -> (Unknown what, None)
  in
  {
    verdict;
    fragment;
    algorithm;
    stats;
    witness_verified;
    automaton_q = m.Bip.q_card;
    automaton_k = m.Bip.pf.Pathfinder.n_states;
    cert_seed = None;
  }

let minimize eta report =
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let holds t = Semantics.check_somewhere t eta in
  match report.verdict with
  | Sat w when holds w ->
    let m, _, _ = prepare Options.default eta in
    let w = Witness_min.minimize ~check:holds w eta in
    { report with verdict = Sat w; witness_verified = Some (witness_holds m eta w) }
  | _ -> report

let satisfiable ?width eta =
  let options =
    match width with
    | Some w -> { Options.default with Options.width = w; verify = false }
    | None -> { Options.default with Options.verify = false }
  in
  match (decide ~options eta).verdict with
  | Sat _ -> Some true
  | Unsat | Unsat_bounded _ -> Some false
  | Unknown _ -> None

let decide_string s =
  match Xpds_xpath.Parser.formula_of_string s with
  | Error e -> Error e
  | Ok f -> Ok (decide (Xpds_xpath.Ast.as_node f))

let pp_verdict ppf = function
  | Sat w ->
    Format.fprintf ppf "SAT, witness: %a" Data_tree.pp w
  | Unsat -> Format.pp_print_string ppf "UNSAT (certified)"
  | Unsat_bounded why -> Format.fprintf ppf "UNSAT (%s)" why
  | Unknown why -> Format.fprintf ppf "UNKNOWN (%s)" why

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fragment: %s@,algorithm: %s@,automaton: |Q|=%d |K|=%d@,states \
     explored: %d, transitions: %d, mergings: %d@,verdict: %a%a@]"
    (Fragment.name r.fragment) r.algorithm r.automaton_q r.automaton_k
    r.stats.Emptiness.n_states r.stats.Emptiness.n_transitions
    r.stats.Emptiness.n_mergings pp_verdict r.verdict
    (fun ppf -> function
      | Some true -> Format.fprintf ppf "@,witness verified: yes"
      | Some false -> Format.fprintf ppf "@,witness verified: NO (BUG)"
      | None -> ())
    r.witness_verified
