(* Order statistics shared by the run and compare commands. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array ([q] in [0, 1]). *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default "exclusive" method), so the numbers printed here match
   the ones the acceptance check computes. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let at i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (at 1, at 2, at 3)

(* Latency histograms: 200 logarithmic buckets per decade from 1e-6 ms
   to 1e4 ms. Two histograms merge by adding counts, so latencies from
   many stretches of a run pool exactly in bounded memory; a percentile
   is placed inside its bucket by rank. *)
let per_decade = 200
let low_exp = -6.
let buckets = 10 * per_decade

let hist () = Array.make buckets 0

let add h ms =
  let b = int_of_float ((Float.log10 (Float.max ms 1e-6) -. low_exp) *. float_of_int per_decade) in
  let b = max 0 (min (buckets - 1) b) in
  h.(b) <- h.(b) + 1

(* Nearest-rank percentile ([q] in [0, 1]). *)
let hist_percentile h q =
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go b below =
      if b = buckets - 1 || below + h.(b) >= rank then
        let within = (float_of_int (rank - below) -. 0.5) /. float_of_int (max 1 h.(b)) in
        10. ** (low_exp +. ((float_of_int b +. within) /. float_of_int per_decade))
      else go (b + 1) (below + h.(b))
    in
    go 0 0

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0. l
