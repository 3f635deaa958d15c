(** Inclusion and equivalence of node expressions (paper §4.1,
    "Inclusion and equivalence problems").

    Since regXPath(↓,=) is closed under boolean operations, [ϕ ⊑ ψ]
    (i.e., [[ϕ]] ⊆ [[ψ]] on every data tree) reduces to the
    unsatisfiability of [ϕ ∧ ¬ψ]; equivalence is mutual inclusion. The
    paper leaves inclusion of {e path} expressions open — so do we. *)

type answer =
  | Holds  (** certified: the unsatisfiability of ϕ∧¬ψ met the paper's
               completeness bounds *)
  | Holds_bounded of string
      (** the ϕ∧¬ψ search saturated under practical bounds smaller than
          the paper's ([Sat.Unsat_bounded]) — no counterexample exists
          {e within} those bounds; empirically reliable, not certified *)
  | Fails of Xpds_datatree.Data_tree.t
      (** counterexample tree: some node satisfies ϕ but not ψ *)
  | Unknown of string

val query : Xpds_xpath.Ast.node -> Xpds_xpath.Ast.node -> Xpds_xpath.Ast.node
(** [query phi psi = ϕ ∧ ¬ψ] — the satisfiability instance whose models
    are exactly the containment counterexamples. *)

val answer_of_verdict : Sat.verdict -> answer
(** Read a verdict on [query phi psi] as a containment answer:
    [Sat w ↦ Fails w], [Unsat ↦ Holds], [Unsat_bounded ↦ Holds_bounded],
    [Unknown ↦ Unknown]. *)

val contained :
  ?options:Sat.Options.t ->
  Xpds_xpath.Ast.node -> Xpds_xpath.Ast.node -> answer
(** [contained phi psi] — does [[ϕ]] ⊆ [[ψ]] hold on every data tree?
    [options] (default {!Sat.Options.default}) configures the ϕ∧¬ψ
    search exactly as {!Sat.decide}: cooperative deadlines
    ([should_stop]), widths/budgets, pruning, certificate
    mode — so a served containment request honors the same deadline
    machinery as a sat request. *)

val equivalent :
  ?options:Sat.Options.t ->
  Xpds_xpath.Ast.node -> Xpds_xpath.Ast.node ->
  answer * answer
(** Both inclusions; equivalent iff both are [Holds] (certified) or
    [Holds_bounded] (within the search bounds). *)
