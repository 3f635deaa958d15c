(** Pathfinder automata (paper §3.1).

    A pathfinder [P = ⟨K, kI, Q, ν⟩] is a bottom-up nondeterministic
    automaton over data trees labelled with {e sets} of BIP states
    ([σ : T → 2^Q]). A run starts at some node in the initial state [kI]
    and walks to the root; each step either checks the presence of one
    [q ∈ Q] in the current node's label (a {e non-moving} transition
    [ν(q,k)]) or moves to the parent (a {e moving} transition [ν(up,k)]).
    The run's output is the pair [(k, d)] of its last state and the data
    value of its {e first} node: the pathfinder "retrieves" the datum [d]
    with state [k]. *)

type t = private {
  n_states : int;  (** |K|; states are [0 .. n_states-1] *)
  initial : int;  (** k_I *)
  q_card : int;  (** |Q| of the owning BIP automaton *)
  up : int list array;  (** [up.(k)] = ν(up, k) *)
  read : int list array array;
      (** [read.(q).(k)] = ν(q, k); the rows of letters no transition
          reads are one shared empty row — read them, never write *)
  up_bits : Bitv.t array;
      (** [up_bits.(k)] = ν(up, k) as a bit set — precomputed at
          {!create} so a step-up is a word-level union per member; the
          states without moving transitions share one empty set *)
}

val create :
  n_states:int ->
  initial:int ->
  q_card:int ->
  up:(int * int) list ->
  read:(int * int * int) list ->
  t
(** [create ~n_states ~initial ~q_card ~up ~read] with [up] given as
    [(k, k')] pairs meaning [k' ∈ ν(up, k)] and [read] as [(q, k, k')]
    triples meaning [k' ∈ ν(q, k)].
    @raise Invalid_argument on out-of-range states. *)

val closure : t -> label:Bitv.t -> Bitv.t -> Bitv.t
(** [closure p ~label ks] is the paper's non-moving closure [cl(·, S)]
    lifted to sets: all states reachable from [ks] by non-moving
    transitions reading any [q ∈ label]. Computed by a linear fixpoint
    (polynomial, as the paper requires). *)

val step_up : t -> Bitv.t -> Bitv.t
(** [step_up p ks] = [{k' | k ∈ ks, k' ∈ ν(up, k)}] — one moving step for
    a set of run states (the first half of the paper's [step-up]; the
    closure at the parent is the second half). *)

(** {2 Per-search memoization}

    Both operations are pure in the pathfinder and their set arguments,
    and the emptiness fixpoint issues the same queries over and over
    (every combo recomputes the step-up of the same described values;
    every candidate root label recomputes the same closures). A [memo]
    caches results in hash tables keyed on the argument sets with the
    dedicated {!Bitv.hash}. One memo per search: it only grows, and it
    is not thread-safe — never share across domains. *)

type memo

val memo : t -> memo

val closure_m : memo -> label:Bitv.t -> Bitv.t -> Bitv.t
(** Memoized {!closure}, keyed on the (label, base) pair. *)

val step_up_m : memo -> Bitv.t -> Bitv.t
(** Memoized {!step_up}, keyed on the input set. *)

val pp : Format.formatter -> t -> unit
