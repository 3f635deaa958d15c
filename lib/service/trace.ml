external now_ms : unit -> float = "xpds_monotonic_now_ms"

type t = {
  admitted : float;
  mutable spans : (string * float) list;  (** completed, reversed *)
  mutable open_name : string option;
  mutable open_at : float;
}

let create () =
  let now = now_ms () in
  { admitted = now; spans = []; open_name = None; open_at = now }

let admitted t = t.admitted
let elapsed_ms t = now_ms () -. t.admitted

let close t now =
  match t.open_name with
  | None -> ()
  | Some name ->
    t.spans <- (name, now -. t.open_at) :: t.spans;
    t.open_name <- None

let mark t name =
  let now = now_ms () in
  close t now;
  t.open_name <- Some name;
  t.open_at <- now

let finish t = close t (now_ms ())
let add_ms t name ms = t.spans <- (name, ms) :: t.spans

let iter_spans f t = List.iter (fun (name, ms) -> f name ms) t.spans

let spans t =
  let order = ref [] in
  let totals : (string, float ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, ms) ->
      match Hashtbl.find_opt totals name with
      | Some r -> r := !r +. ms
      | None ->
        Hashtbl.add totals name (ref ms);
        order := name :: !order)
    (List.rev t.spans);
  List.rev_map (fun name -> (name, !(Hashtbl.find totals name))) !order

let round_us ms = Float.round (ms *. 1000.) /. 1000.

let to_json t =
  Json.Obj
    [ ("total_ms", Json.Num (round_us (elapsed_ms t)));
      ( "phases",
        Json.Obj
          (List.map (fun (name, ms) -> (name, Json.Num (round_us ms)))
             (spans t)) )
    ]
