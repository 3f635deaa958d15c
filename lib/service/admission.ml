
type t = {
  max_depth : int;
  mutable depth : int;
  mutable ewma_ms : float;
  mutable samples : int;
  mutable shed : int;
}

let create ?(max_depth = 64) () =
  let max_depth = max 1 max_depth in
  { max_depth; depth = 0; ewma_ms = 0.; samples = 0; shed = 0 }

type verdict = Admit | Shed of { retry_after_ms : float }

(* A smoothing factor of 0.2 follows the usual latency-tracker
   convention: heavy enough to absorb one outlier solve, light enough
   to track a phase change in the workload within ~10 requests. *)
let alpha = 0.2

(* Until the first completion lands we have no service-time estimate;
   predict 0 so only the depth bound sheds. Better to admit a doomed
   request during the first instants of a cold start than to shed on a
   made-up constant. *)
let estimate_ms t = if t.samples = 0 then 0. else t.ewma_ms

let check t ~now_ms ~deadline_ms =
  let est = estimate_ms t in
  if t.depth >= t.max_depth then begin
    t.shed <- t.shed + 1;
    (* the queue must shrink by one before a retry can even be
       considered; one service time per excess request *)
    let retry_after_ms =
      max 1. (float_of_int (t.depth + 1 - t.max_depth) *. Float.max est 1.)
    in
    Shed { retry_after_ms }
  end
  else
    match deadline_ms with
    | Some deadline
      when est > 0.
           && now_ms +. (float_of_int (t.depth + 1) *. est) > deadline ->
      t.shed <- t.shed + 1;
      (* the request in front must drain before this deadline class
         fits; hint one queue-drain's worth of waiting *)
      let retry_after_ms = max 1. (float_of_int t.depth *. est) in
      Shed { retry_after_ms }
    | _ -> Admit

let enqueue t = t.depth <- t.depth + 1

let complete t ~service_ms =
  t.depth <- max 0 (t.depth - 1);
  let s = Float.max 0. service_ms in
  if t.samples = 0 then t.ewma_ms <- s
  else t.ewma_ms <- (alpha *. s) +. ((1. -. alpha) *. t.ewma_ms);
  t.samples <- t.samples + 1

let abandon t = t.depth <- max 0 (t.depth - 1)
let depth t = t.depth
let shed_count t = t.shed

let to_json t =
  let num x = Json.Num x in
  Json.Obj
    [ ("depth", num (float_of_int t.depth));
      ("max_depth", num (float_of_int t.max_depth));
      ("shed", num (float_of_int t.shed));
      ("est_ms", num (estimate_ms t))
    ]
