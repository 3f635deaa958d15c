(** The search bounds of the general emptiness engine, and the one rule
    that says when they meet the paper's.

    The paper's procedure is complete under branching [u0] and
    description bound [t0] (Prop 2). The engine also has two practical
    caps the paper does not have. A search saturated under bounds that
    meet the paper's proves emptiness; under smaller bounds it proves
    only that no witness exists within them. *)

type t = {
  width : int option;
      (** max children per node; [None] = the paper's [u0] *)
  t0 : int option;
      (** max described values per state; [None] = the paper's [t0] *)
  dup_cap : int option;
      (** max copies of identical descriptions kept per state;
          [None] = off, as in the paper *)
  merge_budget : int option;
      (** max items taking part in identifications per merging;
          [None] = off, as in the paper *)
}

val default : t
(** The practical bounds: width 3, t0 6, dup_cap 2, merge_budget 5. *)

val paper : t
(** The paper's bounds: every field [None]. *)

val paper_width : Xpds_automata.Bip.t -> int
(** [u0 = (2|K|² + |K| + 2)·|K|]. *)

val paper_t0 : Xpds_automata.Bip.t -> int
(** [t0 = 2|K|² + 2]. *)

val width : Xpds_automata.Bip.t -> t -> int
(** The branching bound a search of the automaton runs under. *)

val paper_complete : Xpds_automata.Bip.t -> t -> bool
(** Whether the bounds meet the paper's for the automaton: width and t0
    at least [u0] and [t0], no duplicate cap and no merging budget. *)

val reason : Xpds_automata.Bip.t -> t -> string
(** Why a saturated search under these bounds proves less than
    emptiness: ["saturated at width 3 (paper bound 1104)"]. *)
