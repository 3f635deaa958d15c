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
  cs_bounds : Bounds.t;
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

let rules_version = 3

module Options = struct
  type t = {
    bounds : Bounds.t;
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
      bounds = Bounds.default;
      max_states = Emptiness.default_config.Emptiness.max_states;
      max_transitions = Emptiness.default_config.Emptiness.max_transitions;
      should_stop = None;
      on_phase = ignore;
      verify = true;
      extra_labels = [];
      certificate = false;
    }

  let with_bounds f o = { o with bounds = f o.bounds }
  let with_width w = with_bounds (fun b -> { b with width = Some w })
  let with_t0 t0 = with_bounds (fun b -> { b with t0 })
  let with_dup_cap dup_cap = with_bounds (fun b -> { b with dup_cap })

  let with_merge_budget merge_budget =
    with_bounds (fun b -> { b with merge_budget })

  let with_max_states max_states o = { o with max_states }
  let with_max_transitions max_transitions o = { o with max_transitions }
  let with_should_stop should_stop o = { o with should_stop }
  let with_on_phase on_phase o = { o with on_phase }
  let with_verify verify o = { o with verify }
  let with_extra_labels extra_labels o = { o with extra_labels }
  let with_certificate certificate o = { o with certificate }

  (* [rules_version] leads: verdicts decided under other rules must not
     be served. [certificate] is part of it: certificate mode disables
     the height cap (the fixpoint must genuinely saturate), which can
     change the outcome class of a run. The hooks are per run and not
     part of it; forced labels are, when there are any. *)
  let fingerprint o =
    let opt = function None -> "-" | Some i -> string_of_int i in
    let b = o.bounds in
    Printf.sprintf "r%d;w%s;t0=%s;dup=%s;mb=%s;ms=%d;mt=%d;v=%b;c=%b%s"
      rules_version (opt b.width) (opt b.t0) (opt b.dup_cap)
      (opt b.merge_budget) o.max_states o.max_transitions o.verify
      o.certificate
      (match o.extra_labels with
      | [] -> ""
      | ls ->
        ";xl=" ^ String.concat "," (List.map Xpds_datatree.Label.to_string ls))
end

(* The automaton and height bound of one search of the simplified
   [eta]. Certificate mode needs the fixpoint to saturate genuinely: a
   height-capped basis is not inductively closed (the engine may still
   discover states one level up), so the Theorem-6 height shortcut is
   turned off and the search runs to a true fixpoint within the bounds. *)
let prepare o eta =
  let bound =
    if o.Options.certificate then None else Emptiness.theorem6_cap eta
  in
  let m =
    Translate.of_node ~labels:o.Options.extra_labels
      (Xpds_xpath.Ast.Exists
         (Xpds_xpath.Ast.Filter (Xpds_xpath.Ast.Axis Descendant, eta)))
  in
  (m, bound)

let engine_config o max_height =
  {
    Emptiness.bounds = o.Options.bounds;
    max_height;
    max_states = o.Options.max_states;
    max_transitions = o.Options.max_transitions;
    should_stop = o.Options.should_stop;
  }

(* Certificate mode ([Emptiness.check ~basis:true]) always runs the
   general engine, never the data-free union closure. *)
let algorithm_name o ~certificate m bound =
  if Emptiness.data_free m && not certificate then "data-free union closure"
  else
    let width = string_of_int (Bounds.width m o.Options.bounds) in
    match bound with
    | Some b ->
      "height-bounded fixpoint (Thm 6, H="
      ^ string_of_int (b : Emptiness.height_cap :> int)
      ^ ", width="
      ^ width ^ ")"
    | None -> "full fixpoint (Thm 4, width=" ^ width ^ ")"

let general_search ?(options = Options.default) eta =
  let m, bound = prepare options (Xpds_xpath.Rewrite.simplify eta) in
  (m, engine_config options bound)

(* The certificate material of a search of [m], translated from [eta];
   its bounds name the width the search ran at. *)
let seed o eta m basis =
  {
    cs_formula = eta;
    cs_labels = m.Bip.labels;
    cs_bounds =
      { o.Options.bounds with width = Some (Bounds.width m o.Options.bounds) };
    cs_basis = basis;
  }

(* The one engine call: search the automaton [m] translated from the
   simplified [eta] and report. The outcome maps to the verdict one to
   one; a witness enters the "verify" phase and is replayed by [replay]
   (under [verify]) only when the caller passes one. With
   [~certificate] the search keeps its basis for the report's seed. *)
let run o ~certificate ~fragment ~prefix ?replay ~max_height eta m =
  o.Options.on_phase "fixpoint";
  let { Emptiness.outcome; stats; basis } =
    Emptiness.check ~config:(engine_config o max_height) ~basis:certificate m
  in
  let verdict, witness_verified =
    match outcome with
    | Emptiness.Nonempty w -> (
      match replay with
      | None -> (Sat w, None)
      | Some holds ->
        o.Options.on_phase "verify";
        (Sat w, if o.Options.verify then Some (holds w) else None))
    | Emptiness.Empty -> (Unsat, None)
    | Emptiness.Bounded_empty ->
      (Unsat_bounded (Bounds.reason m o.Options.bounds), None)
    | Emptiness.Resource_limit what -> (Unknown what, None)
  in
  {
    verdict;
    fragment;
    algorithm = prefix ^ algorithm_name o ~certificate m max_height;
    stats;
    witness_verified;
    automaton_q = m.Bip.q_card;
    automaton_k = m.Bip.pf.Pathfinder.n_states;
    cert_seed = (if certificate then Some (seed o eta m basis) else None);
  }

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

let relaxation_prefix = "data-free relaxation: "

(* Both replays of a witness: the reference semantics of [eta] and a
   run of its automaton [m], which runs only when the semantics holds.
   A tree on which the automaton has no run or several is not
   accepted. *)
let witness_holds m eta w =
  Semantics.check_somewhere w eta
  &&
  match Bip_run.accepts m w with
  | b -> b
  | exception (Bip_run.No_run _ | Bip_run.Ambiguous_run _) -> false

let lift ?should_stop m eta w' =
  Lift.search ?should_stop ~holds:(witness_holds m eta) w'

let decide ?(options = Options.default) eta =
  let o = options in
  o.Options.on_phase "translate";
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let fragment = Fragment.classify eta in
  let general m max_height =
    run o ~certificate:o.Options.certificate ~fragment ~prefix:""
      ~replay:(witness_holds m eta) ~max_height eta m
  in
  if not (Fragment.features eta).Fragment.uses_data then
    let m, max_height = prepare o eta in
    general m max_height
  else
    (* Every model of η is a model of its relaxation η′, a data-free
       formula that the exact union closure decides. An empty η′ is an
       unconditional [Unsat] (outside certificate mode, whose basis
       must come from η's own automaton); a witness of η′ is lifted to
       a model of η when [Lift] finds its data. *)
    let relaxed = Xpds_xpath.Rewrite.simplify (data_free_relaxation eta) in
    let m', max_height' = prepare o relaxed in
    let relaxation =
      run o ~certificate:false ~fragment ~prefix:relaxation_prefix
        ~max_height:max_height' relaxed m'
    in
    match relaxation.verdict with
    | Unsat when not o.Options.certificate -> relaxation
    | verdict -> (
      o.Options.on_phase "translate";
      let m, max_height = prepare o eta in
      let lifted =
        match verdict with
        | Sat w' ->
          o.Options.on_phase "lift";
          lift ?should_stop:o.Options.should_stop m eta w'
        | _ -> None
      in
      match lifted with
      | Some w ->
        {
          relaxation with
          verdict = Sat w;
          algorithm = relaxation_prefix ^ "witness lift";
          witness_verified = Some true;
          cert_seed =
            (if o.Options.certificate then Some (seed o eta m None) else None);
        }
      | None -> general m max_height)

module Doctype = Xpds_automata.Doctype

let decide_under_doctype ?(options = Options.default) ~doctype eta =
  let o = options in
  o.Options.on_phase "translate";
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let fragment = Fragment.classify eta in
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
  let replay w =
    Semantics.check_somewhere w eta
    && Doctype.conforms ~labels:m0.Bip.labels doctype w
    && Bip_run.accepts m w
  in
  (* The Theorem-6 poly-depth height bound is justified for the bare
     formula only: the doctype can force strictly deeper models (an
     at_least rule growing a chain under every node the formula
     touches), so the doctype-restricted search always runs the full
     Theorem-4 fixpoint. *)
  (* Certificate mode is not defined for the intersection (the basis
     checker replays the bare-formula automaton): the search runs as
     without it, keeps no basis and the report carries no seed, rather
     than a certificate that proves the wrong language empty. *)
  run o ~certificate:false ~fragment ~prefix:"doctype-restricted (§4.1) "
    ~replay ~max_height:None eta m

let minimize eta report =
  let eta = Xpds_xpath.Rewrite.simplify eta in
  let holds t = Semantics.check_somewhere t eta in
  match report.verdict with
  | Sat w when holds w ->
    let m, _ = prepare Options.default eta in
    let w = Witness_min.minimize ~check:holds w eta in
    { report with verdict = Sat w; witness_verified = Some (witness_holds m eta w) }
  | _ -> report

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
