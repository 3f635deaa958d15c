(* The pieces [Run] drives a workload with: spans, the engines' timed
   set-ups, the speed probe, peak memory, and the closed loop that sends
   requests and collects answers. *)

module J = Xpds.Json
module Service = Xpds.Service
module Engine = Xpds.Engine

let now = Xpds.Trace.now_ms

(* --- spans (traced runs only) ---

   Every span's self time — its duration minus its children's — is
   summed by name as the span is added; the spans themselves are kept
   for set-up and for the first [kept] requests, which is what the trace
   file holds. *)

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing kept span, -1 if none *)
  req : int;  (** request index, -1 for set-up *)
}

type handle = { idx : int; hname : string }

let no_span = { idx = -1; hname = "" }
let kept = ref 0
let spans = ref []
let n_kept = ref 0
let self_ms : (string, float) Hashtbl.t = Hashtbl.create 32

let bump tbl k x = Hashtbl.replace tbl k (x +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let add_span ~trace name ?(parent = no_span) ?(req = -1) start stop =
  if not trace then no_span
  else begin
    bump self_ms name (stop -. start);
    if parent.hname <> "" then bump self_ms parent.hname (start -. stop);
    if req < !kept then begin
      spans := { name; start; stop; parent = parent.idx; req } :: !spans;
      incr n_kept;
      { idx = !n_kept - 1; hname = name }
    end
    else { idx = -1; hname = name }
  end

(* Times in whole microseconds: the JSON printer keeps every digit of a
   whole number, and only six of any other. *)
let spans_json () =
  let us ms = J.Num (Float.round (ms *. 1000.)) in
  J.Arr
    (List.rev_map
       (fun s ->
         J.Obj
           [ ("name", J.Str s.name);
             ("start_us", us s.start);
             ("end_us", us s.stop);
             ("parent", J.Num (float_of_int s.parent));
             ("req", J.Num (float_of_int s.req))
           ])
       !spans)

(* --- set-up --- *)

(* Set-up time by part, summed over every set-up of the run. *)
let setup_parts : (string, float) Hashtbl.t = Hashtbl.create 8

let part ~trace name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  bump setup_parts name (t1 -. t0);
  ignore (add_span ~trace name t0 t1);
  r

(* Every engine emits into whatever [sink] currently points at. *)
let sink = ref (fun (_ : string) -> ())
let emit line = !sink line

type engine = { eng : Engine.t; close : unit -> unit }

let warm_line = {|{"id":"warm","formula":"<down[warm]>"}|}

let in_process ~trace svc =
  let eng = Engine.in_process ~trace ~emit svc in
  part ~trace "warmup" (fun () -> Engine.submit eng warm_line);
  eng

let setup_service ~trace config () =
  let svc = part ~trace "Service.create" (fun () -> Service.create config) in
  let eng = in_process ~trace svc in
  { eng; close = (fun () -> Engine.close eng) }

let store_config ~capacity =
  Service.Config.(default |> with_cache_capacity capacity)

let open_store ~path config =
  match
    Xpds.Store.open_rw ~path ~protocol_version:Service.protocol_version
      ~config_fingerprint:(Service.Config.fingerprint config.Service.Config.solver)
      ()
  with
  | Ok (store, _) -> store
  | Error e -> failwith ("store: " ^ e)

let setup_store ~trace ~path ~capacity () =
  let config = store_config ~capacity in
  let store = part ~trace "Store.open_rw" (fun () -> open_store ~path config) in
  let svc = part ~trace "Service.create" (fun () -> Service.create ~store config) in
  let eng = in_process ~trace svc in
  { eng; close = (fun () -> Engine.close eng; Xpds.Store.close store) }

let setup_docs ~trace docs () =
  let flat =
    List.map
      (fun (name, tree) ->
        (name, part ~trace "Eval_doc.of_tree" (fun () -> Xpds.Eval_doc.of_tree tree)))
      docs
  in
  let svc = part ~trace "Service.create" (fun () -> Service.create Service.Config.default) in
  List.iter
    (fun (name, doc) ->
      match part ~trace "Service.register_doc" (fun () -> Service.register_doc svc ~name doc) with
      | Ok () -> ()
      | Error e -> failwith ("register_doc: " ^ e))
    flat;
  let eng = Engine.in_process ~trace ~emit svc in
  part ~trace "warmup" (fun () ->
      Engine.submit eng
        (Printf.sprintf {|{"id":"warm","kind":"eval","formula":"a","doc":%s}|}
           (Workload.jstr (fst (List.hd docs)))));
  { eng; close = (fun () -> Engine.close eng) }

(* Time a set-up; the engine is then closed or kept. *)
let timed_setup setup =
  sink := ignore;
  let t0 = now () in
  let e = setup () in
  (e, (now () -. t0) /. 1000.)

(* --- the box's speed --- *)

(* Three fixed pieces of work that use none of the code under test,
   timed to read how fast the box runs this process right now: probes
   into an open-addressing table of 16k slots (cache-resident, no
   allocation), a hash table filled with fresh strings (allocation and
   hashing, like the service), and word operations streamed over a 2 MB
   array (like bit-set kernels). Interference on a shared box slows each
   of them, and each workload, differently. *)
let probe_table = Array.make 16384 0

let probe_table_kernel () =
  let t = probe_table in
  Array.fill t 0 (Array.length t) 0;
  let x = ref 12345 and hits = ref 0 in
  for i = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x lor 1 in
    let j = ref (k land 16383) in
    while t.(!j) <> 0 && t.(!j) <> k do
      j := (!j + 1) land 16383
    done;
    if t.(!j) = k then incr hits else if i <= 8000 then t.(!j) <- k
  done;
  !hits

let probe_alloc_kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 9_999 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let hits = ref 0 in
  for i = 0 to 19_999 do
    if Hashtbl.mem h (string_of_int (i * 3 * 7919)) then incr hits
  done;
  !hits + List.length (List.sort compare (List.init 20_000 (fun i -> i * 7919 mod 10_007)))

let probe_words = Array.make (1 lsl 18) 0x5555

let probe_stream_kernel () =
  let w = probe_words and acc = ref 0 in
  for _ = 1 to 6 do
    for i = 0 to Array.length w - 1 do
      let x = w.(i) in
      w.(i) <- (x lor (x lsr 1)) land lnot (x lsl 2);
      acc := !acc + (x land 0xff)
    done
  done;
  !acc

(* The geometric mean of the three kernels' times (each the fastest of
   three), in ms. Over ten 12 s runs each of hard-solve and eval-docs,
   scaling throughput by it cut the run-to-run spread (quartile distance
   over median) from 22 % and 17 % to 5 % and 4 %. The best single
   kernel left 6 % and 3 %, the best pairs 4-11 % and 2-8 % — and which
   pair was best changed from one hour to the next. *)
let speed_probe () =
  let best kernel =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let t0 = now () in
           ignore (Sys.opaque_identity (kernel ()));
           now () -. t0))
  in
  Float.cbrt (best probe_table_kernel *. best probe_alloc_kernel *. best probe_stream_kernel)

(* The probe's time on the reference box (two cores of a Xeon VM) when
   nothing else slows it. *)
let reference_probe_ms = 4.2

(* The factor that brings a stretch timed between two probes to the
   reference speed: below 1 when the box runs slow. It is the square root
   of the probe's own ratio, because the workloads slow about half as
   much as the probe does: over 300 rounds on the reference box, the
   slope of a round's log throughput against the log of the probe's ratio
   was 0.39 (hard-solve), 0.46 (light-mix) and 0.57 (eval-docs). The
   full ratio overcorrected: over ten runs it left eval-docs' throughput
   spread at 13 % where the square root left 8 %. *)
let speed before after = sqrt (reference_probe_ms /. sqrt (before *. after))

(* --- memory --- *)

let status_kb pid field =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] when k = field ->
          Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0
  | exception Sys_error _ -> 0

(* VmHWM of this process. *)
let peak_rss_mb () = float_of_int (status_kb (Unix.getpid ()) "VmHWM") /. 1024.

(* --- the timed phase --- *)

type sample = {
  mutable sent : float;
  mutable got : float;  (** nan while unanswered *)
  mutable resp : string;
  mutable answers : int;
}

(* Closed loop, one client: each request is sent when the previous
   answer arrived (the in-process engine answers inside submit), and its
   latency runs from then to its answer. Returns the samples and the
   round's wall time in s. *)
let closed_round e (lines : string array) =
  let out = Array.map (fun _ -> { sent = nan; got = nan; resp = ""; answers = 0 }) lines in
  let cur = ref 0 in
  sink :=
    (fun line ->
      let s = out.(!cur) in
      s.got <- now ();
      s.resp <- line;
      s.answers <- s.answers + 1);
  let t0 = now () in
  Array.iteri
    (fun i line ->
      cur := i;
      out.(i).sent <- now ();
      Engine.submit e.eng line)
    lines;
  Engine.drain e.eng;
  (out, (now () -. t0) /. 1000.)
