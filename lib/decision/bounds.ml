module Bip = Xpds_automata.Bip
module Pathfinder = Xpds_automata.Pathfinder

type t = {
  width : int option;
  t0 : int option;
  dup_cap : int option;
  merge_budget : int option;
}

let default =
  { width = Some 3; t0 = Some 6; dup_cap = Some 2; merge_budget = Some 5 }

let paper = { width = None; t0 = None; dup_cap = None; merge_budget = None }

let paper_width (m : Bip.t) =
  let k = m.pf.Pathfinder.n_states in
  ((2 * k * k) + k + 2) * k

let paper_t0 (m : Bip.t) =
  let k = m.pf.Pathfinder.n_states in
  (2 * k * k) + 2

let width m b = match b.width with Some w -> w | None -> paper_width m

let paper_complete m b =
  width m b >= paper_width m
  && (match b.t0 with Some t -> t >= paper_t0 m | None -> true)
  && b.dup_cap = None && b.merge_budget = None

let reason m b =
  "saturated at width " ^ string_of_int (width m b) ^ " (paper bound "
  ^ string_of_int (paper_width m)
  ^ ")"
