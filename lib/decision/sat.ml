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
    minimize : bool;
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
      minimize = false;
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
  let with_minimize minimize o = { o with minimize }
  let with_extra_labels extra_labels o = { o with extra_labels }
  let with_certificate certificate o = { o with certificate }
end

let saturated_reason width m =
  "saturated at width " ^ string_of_int width ^ " (paper bound "
  ^ string_of_int (Emptiness.paper_width m)
  ^ ")"

let decide ?(options = Options.default) eta =
  let o = options in
  o.Options.on_phase "translate";
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let fragment = Fragment.classify eta in
  let bound = Fragment.poly_depth_bound eta in
  (* Certificate mode needs the fixpoint to saturate genuinely: a
     height-capped basis is not inductively closed (the engine may
     still discover states one level up), so the Theorem-6 height
     shortcut is turned off and the search runs to a true fixpoint
     within the width/t0/dup/merge bounds. *)
  let bound = if o.Options.certificate then None else bound in
  let m = Translate.of_node ~labels:o.Options.extra_labels
      (Xpds_xpath.Ast.Exists
         (Xpds_xpath.Ast.Filter (Xpds_xpath.Ast.Axis Descendant, eta)))
  in
  let config =
    {
      Emptiness.width = Some o.Options.width;
      t0 = o.Options.t0;
      dup_cap = o.Options.dup_cap;
      merge_budget = o.Options.merge_budget;
      max_height = bound;
      max_states = o.Options.max_states;
      max_transitions = o.Options.max_transitions;
      should_stop = o.Options.should_stop;
    }
  in
  let algorithm =
    match bound with
    | Some b ->
      "height-bounded fixpoint (Thm 6, H=" ^ string_of_int b ^ ", width="
      ^ string_of_int o.Options.width ^ ")"
    | None -> "full fixpoint (Thm 4, width=" ^ string_of_int o.Options.width ^ ")"
  in
  let outcome, stats, basis =
    o.Options.on_phase "fixpoint";
    if o.Options.certificate then Emptiness.check_with_basis ~config m
    else
      let outcome, stats = Emptiness.check_with_stats ~config m in
      (outcome, stats, None)
  in
  let paper_complete_widths =
    o.Options.width >= Emptiness.paper_width m
    && (match o.Options.t0 with
       | Some t -> t >= Transition.t0_default m
       | None -> true)
    && o.Options.dup_cap = None
    && o.Options.merge_budget = None
  in
  let verdict, witness_verified =
    match outcome with
    | Emptiness.Nonempty w ->
      o.Options.on_phase "verify";
      let w =
        if o.Options.minimize then
          Witness_min.minimize
            ~check:(fun t -> Semantics.check_somewhere t eta)
            w eta
        else w
      in
      let verified =
        if o.Options.verify then
          Some (Semantics.check_somewhere w eta && Bip_run.accepts m w)
        else None
      in
      (Sat w, verified)
    | Emptiness.Empty -> (Unsat, None)
    | Emptiness.Bounded_empty ->
      if paper_complete_widths then
        (* The height bound is the fragment's poly-depth bound, which is
           exact; with paper-complete width/t0 the answer is certified. *)
        (Unsat, None)
      else
        ( Unsat_bounded
            (saturated_reason o.Options.width m),
          None )
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
    algorithm;
    stats;
    witness_verified;
    automaton_q = m.Bip.q_card;
    automaton_k = m.Bip.pf.Pathfinder.n_states;
    cert_seed;
  }

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
  let config =
    {
      Emptiness.width = Some o.Options.width;
      t0 = o.Options.t0;
      dup_cap = o.Options.dup_cap;
      merge_budget = o.Options.merge_budget;
      max_height = None;
      max_states = o.Options.max_states;
      max_transitions = o.Options.max_transitions;
      should_stop = o.Options.should_stop;
    }
  in
  let algorithm =
    "doctype-restricted full fixpoint (§4.1, width="
    ^ string_of_int o.Options.width ^ ")"
  in
  o.Options.on_phase "fixpoint";
  let outcome, stats = Emptiness.check_with_stats ~config m in
  let paper_complete_widths =
    o.Options.width >= Emptiness.paper_width m
    && (match o.Options.t0 with
       | Some t -> t >= Transition.t0_default m
       | None -> true)
    && o.Options.dup_cap = None
    && o.Options.merge_budget = None
  in
  let conforming t = Doctype.conforms ~labels:m0.Bip.labels doctype t in
  let verdict, witness_verified =
    match outcome with
    | Emptiness.Nonempty w ->
      o.Options.on_phase "verify";
      let w =
        if o.Options.minimize then
          Witness_min.minimize
            ~check:(fun t ->
              Semantics.check_somewhere t eta && conforming t)
            w eta
        else w
      in
      let verified =
        if o.Options.verify then
          Some
            (Semantics.check_somewhere w eta
            && conforming w && Bip_run.accepts m w)
        else None
      in
      (Sat w, verified)
    | Emptiness.Empty -> (Unsat, None)
    | Emptiness.Bounded_empty ->
      if paper_complete_widths then (Unsat, None)
      else
        ( Unsat_bounded
            (saturated_reason o.Options.width m),
          None )
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
