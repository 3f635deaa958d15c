module Service = Xpds_service.Service
module Engine = Xpds_service.Engine
module Admission = Xpds_service.Admission
module Metrics = Xpds_service.Metrics
module Cache_key = Xpds_service.Cache_key
module Trace = Xpds_service.Trace
module Request = Xpds_service.Request

(* --- routing --- *)

let shard_of_key ~shards (key : Cache_key.t) =
  if shards <= 1 then 0
  else
    let b i = Char.code key.[i] in
    (* an MD5 digest is uniform; three bytes give 2^24 buckets, far
       more than any realistic shard count *)
    ((b 0 lsl 16) lor (b 1 lsl 8) lor b 2) mod shards

type route = To of int | Fanout of { fwd : int; bwd : int }

(* The raw pieces the router needs from a request line: where it goes,
   which id to echo on shed/abort errors, which deadline admission
   reasons about, and — for equiv — the raw formula strings of the two
   fanned-out contains sub-requests. *)
type plan = {
  pl_route : route;
  pl_id : string option;
  pl_timeout_ms : float option;
  pl_fanout : (string * string) option;  (** raw (phi, psi) of an equiv *)
}

let plan_of_line ~config_fingerprint ~shards line =
  let home body =
    shard_of_key ~shards (Request.key ~config_fingerprint body).Request.digest
  in
  match Request.of_line line with
  | Ok { id; timeout_ms; body = Equiv { phi; psi } } ->
    let fwd, bwd = Request.directions phi psi in
    let raw = Result.to_option (Json.parse line) in
    { pl_route = Fanout { fwd = home fwd; bwd = home bwd };
      pl_id = Some id;
      pl_timeout_ms = timeout_ms;
      pl_fanout =
        (match
           (Option.bind raw (Json.member "phi"), Option.bind raw (Json.member "psi"))
         with
        | Some (Json.Str phi), Some (Json.Str psi) -> Some (phi, psi)
        | _ -> None)
    }
  | Ok { id; timeout_ms; body } ->
    (* eval routes for cache affinity: the same (document, query) pair
       always revisits the same worker's eval cache *)
    { pl_route = To (home body);
      pl_id = Some id;
      pl_timeout_ms = timeout_ms;
      pl_fanout = None
    }
  | Error _ | (exception _) ->
    (* any worker answers the same structured error; hash the raw text
       so garbage spreads deterministically *)
    { pl_route = To (shard_of_key ~shards (Digest.string line));
      pl_id = Request.id_of_line line;
      pl_timeout_ms = None;
      pl_fanout = None
    }

let route_line ~config_fingerprint ~shards line =
  (plan_of_line ~config_fingerprint ~shards line).pl_route

(* --- metrics aggregation --- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let averaged_keys = [ "mean"; "p50"; "p95"; "p99"; "est_ms" ]

(* Latency-shape fields carry each numeric leaf's weight — its source
   snapshot's top-level request count — so a shard that served 10,000
   requests dominates one that served 10 instead of counting the same.
   Merged percentiles remain approximations either way (an average of
   per-shard p95s is not the fleet p95); the router section labels
   them as such. *)
let combine_nums key (xs : (float * float) list) =
  match xs with
  | [] -> 0.
  | (_, hd) :: _ ->
    let k = String.lowercase_ascii key in
    if contains_sub k "min" then
      List.fold_left (fun acc (_, x) -> Float.min acc x) hd xs
    else if contains_sub k "max" then
      List.fold_left (fun acc (_, x) -> Float.max acc x) hd xs
    else if List.mem k averaged_keys then begin
      let wsum = List.fold_left (fun acc (w, _) -> acc +. w) 0. xs in
      if wsum > 0. then
        List.fold_left (fun acc (w, x) -> acc +. (w *. x)) 0. xs /. wsum
      else
        (* all-idle shards: any weighting degenerates; plain average *)
        List.fold_left (fun acc (_, x) -> acc +. x) 0. xs
        /. float_of_int (List.length xs)
    end
    else List.fold_left (fun acc (_, x) -> acc +. x) 0. xs

let rec merge_values ~key (vs : (float * Json.t) list) =
  match vs with
  | [] -> Json.Null
  | (_, Json.Obj _) :: _ ->
    let objs =
      List.filter_map
        (function w, Json.Obj f -> Some (w, f) | _ -> None)
        vs
    in
    (* union of keys, in first-appearance order *)
    let keys =
      List.fold_left
        (fun acc (_, fields) ->
          List.fold_left
            (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
            acc fields)
        [] objs
    in
    Json.Obj
      (List.map
         (fun k ->
           ( k,
             merge_values ~key:k
               (List.filter_map
                  (fun (w, fields) ->
                    Option.map (fun v -> (w, v)) (List.assoc_opt k fields))
                  objs) ))
         keys)
  | (_, Json.Num _) :: _ ->
    Json.Num
      (combine_nums key
         (List.filter_map
            (function w, Json.Num x -> Some (w, x) | _ -> None)
            vs))
  | (_, v) :: _ -> v

let snapshot_weight snap =
  match Json.member "requests" snap with
  | Some (Json.Num n) when n >= 0. -> n
  | _ -> 1.

let merge_metrics snaps =
  merge_values ~key:""
    (List.map (fun s -> (snapshot_weight s, s)) snaps)

(* --- the worker child --- *)

let sentinel = "#xpds:metrics"

(* Control lines are intercepted here, before [handle_line], so the
   wire protocol itself stays exactly v1 — a client talking to a shard
   directly could never send one by accident ('#' opens no JSON). *)
let worker_loop ~svc ~default_timeout_ms ~trace in_fd out_fd =
  let ic = Unix.in_channel_of_descr in_fd in
  let oc = Unix.out_channel_of_descr out_fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> Unix._exit 0
    | line when line = sentinel ->
      output_string oc
        (sentinel ^ " "
        ^ Json.to_string (Metrics.to_json (Service.metrics svc)));
      output_char oc '\n';
      flush oc;
      loop ()
    | line ->
      output_string oc (Service.handle_line ?default_timeout_ms ~trace svc line);
      output_char oc '\n';
      flush oc;
      loop ()
  in
  loop ()

(* --- the router --- *)

type dir = Fwd | Bwd

(* Router-side correlation of an equiv's two fanned-out directions. *)
type equiv_cell = {
  eq_id : string;
  eq_start : float;
  mutable fwd_resp : Json.t option;
  mutable bwd_resp : Json.t option;
  mutable eq_settled : bool;  (** merged response (or abort error) emitted *)
}

type pending =
  | P_plain  (** worker response line forwarded verbatim *)
  | P_dir of equiv_cell * dir
  | P_probe of Json.t option ref  (** metrics sentinel reply slot *)

type entry = {
  line : string;
  pend : pending;
  admitted : bool;  (** went through admission (probes bypass it) *)
  enq_ms : float;
}

type worker = {
  w_index : int;
  mutable pid : int;
  mutable wfd : Unix.file_descr;  (** router -> worker requests *)
  mutable rfd : Unix.file_descr;  (** worker -> router responses *)
  mutable w_alive : bool;
  unsent : entry Queue.t;
  mutable woff : int;  (** bytes of the head unsent line already written *)
  sent : entry Queue.t;  (** fully written, awaiting response (FIFO) *)
  rbuf : Buffer.t;  (** partial response line *)
  adm : Admission.t;
  mutable last_done : float;
      (** when this worker's previous response landed; the
          service-time sample of a response is measured from
          [max enq_ms last_done] — under FIFO that is when the worker
          actually started on it *)
  mutable routed : int;
}

type t = {
  fingerprint : string;
  default_timeout_ms : float option;
  trace : bool;
  chaos_crash_id : string option;
  make_service : shard:int -> Service.t;
  emit : string -> unit;
  workers : worker array;
  rdbuf : Bytes.t;
  mutable restarts : int;
  mutable closed : bool;
}

let protocol_v = float_of_int Service.protocol_version

let emit_overloaded t ~id ~retry_after_ms =
  t.emit
    (Json.to_string
       (Json.Obj
          ([ ("v", Json.Num protocol_v) ]
          @ (match id with Some i -> [ ("id", Json.Str i) ] | None -> [])
          @ [ ("error", Json.Str "overloaded");
              ("retry_after_ms", Json.Num (Float.round retry_after_ms))
            ])))

let dead_worker_error = "shard worker died; request aborted (worker respawned)"

(* --- the child side of a fork --- *)

let fork_worker t i ~req_r ~req_w ~resp_r ~resp_w =
  (* buffered channel data must not be flushed twice, once per process *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
    try
      Unix.close req_w;
      Unix.close resp_r;
      (* drop the parent ends of every other live worker's pipes, so a
         dead sibling's pipe reads EOF as soon as the router closes it *)
      Array.iter
        (fun w ->
          if w.w_index <> i && w.w_alive then begin
            (try Unix.close w.wfd with Unix.Unix_error _ -> ());
            try Unix.close w.rfd with Unix.Unix_error _ -> ()
          end)
        t.workers;
      let svc = t.make_service ~shard:i in
      (match t.chaos_crash_id with
      | Some cid ->
        Service.Chaos.set svc
          (Some (fun id -> if id = cid then Unix._exit 66))
      | None -> ());
      worker_loop ~svc ~default_timeout_ms:t.default_timeout_ms
        ~trace:t.trace req_r resp_w
    with _ -> Unix._exit 2)
  | pid -> pid

let spawn t i =
  let w = t.workers.(i) in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let pid = fork_worker t i ~req_r ~req_w ~resp_r ~resp_w in
  Unix.close req_r;
  Unix.close resp_w;
  Unix.set_nonblock req_w;
  Unix.set_nonblock resp_r;
  w.pid <- pid;
  w.wfd <- req_w;
  w.rfd <- resp_r;
  w.w_alive <- true;
  w.woff <- 0;
  w.last_done <- Trace.now_ms ();
  Buffer.clear w.rbuf

(* --- response handling --- *)

let direction_of_line line =
  (* a contains response minus its envelope (v, id, kind) is exactly
     the equiv direction object of the in-process serializer *)
  match Json.parse line with
  | Ok (Json.Obj fields) ->
    Json.Obj
      (List.filter (fun (k, _) -> k <> "v" && k <> "id" && k <> "kind") fields)
  | _ ->
    Json.Obj
      [ ("answer", Json.Str "unknown");
        ("reason", Json.Str "unparsable shard response")
      ]

let settle_cell t cell =
  match (cell.fwd_resp, cell.bwd_resp) with
  | Some f, Some b when not cell.eq_settled ->
    cell.eq_settled <- true;
    let ms = Trace.now_ms () -. cell.eq_start in
    t.emit (Service.equiv_to_json ~id:cell.eq_id ~ms f b)
  | _ -> ()

let handle_response t w line =
  match Queue.take_opt w.sent with
  | None -> ()  (* a stray line; FIFO means this cannot happen *)
  | Some e ->
    let now = Trace.now_ms () in
    let started = Float.max e.enq_ms w.last_done in
    w.last_done <- now;
    if e.admitted then Admission.complete w.adm ~service_ms:(now -. started);
    (match e.pend with
    | P_plain -> t.emit line
    | P_dir (cell, d) ->
      let dirobj = direction_of_line line in
      (match d with
      | Fwd -> cell.fwd_resp <- Some dirobj
      | Bwd -> cell.bwd_resp <- Some dirobj);
      settle_cell t cell
    | P_probe slot ->
      let n = String.length sentinel in
      let payload =
        if
          String.length line > n + 1
          && String.sub line 0 n = sentinel
        then String.sub line (n + 1) (String.length line - n - 1)
        else line
      in
      (match Json.parse payload with
      | Ok j -> slot := Some j
      | Error _ -> slot := Some (Json.Obj [])))

(* --- worker death and respawn --- *)

let fail_entry ?(msg = dead_worker_error) t w e =
  if e.admitted then Admission.abandon w.adm;
  match e.pend with
  | P_probe slot -> slot := Some (Json.Obj [])
  | P_plain -> t.emit (Service.error_to_json ?id:(Request.id_of_line e.line) msg)
  | P_dir (cell, _) ->
    if not cell.eq_settled then begin
      cell.eq_settled <- true;
      t.emit (Service.error_to_json ~id:cell.eq_id msg)
    end

(* A worker that keeps dying on arrival (say, its per-shard store path
   is unopenable) must not put the router into an infinite
   fork-EOF-fork loop: past the cap the shard stays down and its
   requests answer structured errors at submission. *)
let max_restarts = 64

let worker_died t w =
  if w.w_alive then begin
    w.w_alive <- false;
    (try Unix.close w.wfd with Unix.Unix_error _ -> ());
    (try Unix.close w.rfd with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    t.restarts <- t.restarts + 1;
    Buffer.clear w.rbuf;
    w.woff <- 0;
    Queue.iter (fail_entry t w) w.sent;
    Queue.clear w.sent;
    Queue.iter (fail_entry t w) w.unsent;
    Queue.clear w.unsent;
    if (not t.closed) && t.restarts <= max_restarts then spawn t w.w_index
  end

(* --- nonblocking I/O pumping --- *)

let rec try_write t w =
  if w.w_alive then
    match Queue.peek_opt w.unsent with
    | None -> ()
    | Some e -> (
      let data = e.line ^ "\n" in
      let len = String.length data in
      match
        Unix.single_write_substring w.wfd data w.woff (len - w.woff)
      with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> ()
      | exception Unix.Unix_error (_, _, _) -> worker_died t w
      | n ->
        w.woff <- w.woff + n;
        if w.woff >= len then begin
          w.woff <- 0;
          ignore (Queue.pop w.unsent);
          Queue.push e w.sent;
          try_write t w
        end)

let drain_lines t w =
  let s = Buffer.contents w.rbuf in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | None ->
      Buffer.clear w.rbuf;
      Buffer.add_substring w.rbuf s start (String.length s - start)
    | Some i ->
      handle_response t w (String.sub s start (i - start));
      go (i + 1)
  in
  go 0

let try_read t w =
  if w.w_alive then
    match Unix.read w.rfd t.rdbuf 0 (Bytes.length t.rdbuf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
    | exception Unix.Unix_error (_, _, _) -> worker_died t w
    | 0 -> worker_died t w
    | n ->
      Buffer.add_subbytes w.rbuf t.rdbuf 0 n;
      drain_lines t w

(* One select over the worker pipes plus any caller-supplied read fds
   ([extra_rds] — the serve loop passes stdin), returning the readable
   subset of the extras. Folding the caller's input source into the
   same select is what keeps a synchronous client alive: a response
   becomes ready while the router is otherwise idle waiting for input,
   and it must be emitted then, not at the next submission. *)
let pump_io ?(extra_rds = []) t ~timeout =
  let rds, wrs =
    Array.fold_left
      (fun (rds, wrs) w ->
        if not w.w_alive then (rds, wrs)
        else
          ( w.rfd :: rds,
            if Queue.is_empty w.unsent then wrs else w.wfd :: wrs ))
      (extra_rds, []) t.workers
  in
  if rds = [] && wrs = [] then []
  else
    match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | rds', wrs', _ ->
      (* a death inside a handler closes fds and respawns with fresh
         ones, so match ready fds against the *current* worker state
         and skip anything stale *)
      List.iter
        (fun fd ->
          Array.iter
            (fun w -> if w.w_alive && w.rfd == fd then try_read t w)
            t.workers)
        rds';
      List.iter
        (fun fd ->
          Array.iter
            (fun w -> if w.w_alive && w.wfd == fd then try_write t w)
            t.workers)
        wrs';
      List.filter (fun fd -> List.memq fd rds') extra_rds

let pending t =
  Array.fold_left
    (fun acc w -> acc + Queue.length w.unsent + Queue.length w.sent)
    0 t.workers

let drain t =
  while pending t > 0 do
    ignore (pump_io t ~timeout:0.25)
  done

(* --- submission --- *)

let push t w e =
  if not w.w_alive then fail_entry t w e
  else begin
    Queue.push e w.unsent;
    try_write t w;
    (* opportunistically collect any responses already waiting, so a
       fast submit loop cannot fill the response pipes *)
    ignore (pump_io t ~timeout:0.)
  end

let contains_line ~id ~phi ~psi ~timeout_ms =
  Json.to_string
    (Json.Obj
       ([ ("v", Json.Num protocol_v);
          ("id", Json.Str id);
          ("kind", Json.Str "contains");
          ("phi", Json.Str phi);
          ("psi", Json.Str psi)
        ]
       @
       match timeout_ms with
       | Some ms -> [ ("timeout_ms", Json.Num ms) ]
       | None -> []))

let submit t line =
  let now = Trace.now_ms () in
  let shards = Array.length t.workers in
  let plan = plan_of_line ~config_fingerprint:t.fingerprint ~shards line in
  let timeout_ms =
    match plan.pl_timeout_ms with
    | Some _ as s -> s
    | None -> t.default_timeout_ms
  in
  let deadline_ms = Option.map (fun ms -> now +. ms) timeout_ms in
  match plan.pl_route with
  | To i -> (
    let w = t.workers.(i) in
    w.routed <- w.routed + 1;
    match Admission.check w.adm ~now_ms:now ~deadline_ms with
    | Admission.Shed { retry_after_ms } ->
      emit_overloaded t ~id:plan.pl_id ~retry_after_ms
    | Admission.Admit ->
      Admission.enqueue w.adm;
      push t w { line; pend = P_plain; admitted = true; enq_ms = now })
  | Fanout { fwd; bwd } -> (
    let wf = t.workers.(fwd) and wb = t.workers.(bwd) in
    wf.routed <- wf.routed + 1;
    if bwd <> fwd then wb.routed <- wb.routed + 1;
    let id = Option.value plan.pl_id ~default:"" in
    match plan.pl_fanout with
    | None ->
      (* cannot happen: a parsed equiv carries raw phi/psi strings;
         degrade to routing the whole line to the forward shard *)
      push t wf { line; pend = P_plain; admitted = false; enq_ms = now }
    | Some (phi, psi) -> (
      (* both directions must be admitted before either enqueues, so
         a half-shed equiv never occupies a slot. When they share a
         shard the pair is checked as one two-slot unit — two
         independent checks would each see the same depth and could
         both admit at depth = bound - 1, pushing the queue past its
         bound and under-counting the second direction's queue wait.
         Across distinct shards both checks always run, and a shed
         reports the larger of the two hints (protocol.md). *)
      let verdict =
        if fwd = bwd then
          Admission.check ~slots:2 wf.adm ~now_ms:now ~deadline_ms
        else
          match
            ( Admission.check wf.adm ~now_ms:now ~deadline_ms,
              Admission.check wb.adm ~now_ms:now ~deadline_ms )
          with
          | Admission.Admit, Admission.Admit -> Admission.Admit
          | ( Admission.Shed { retry_after_ms = a },
              Admission.Shed { retry_after_ms = b } ) ->
            Admission.Shed { retry_after_ms = Float.max a b }
          | (Admission.Shed _ as s), _ | _, (Admission.Shed _ as s) -> s
      in
      match verdict with
      | Admission.Shed { retry_after_ms } ->
        emit_overloaded t ~id:plan.pl_id ~retry_after_ms
      | Admission.Admit ->
        Admission.enqueue wf.adm;
        Admission.enqueue wb.adm;
        let cell =
          { eq_id = id;
            eq_start = now;
            fwd_resp = None;
            bwd_resp = None;
            eq_settled = false
          }
        in
        push t wf
          { line = contains_line ~id ~phi ~psi ~timeout_ms;
            pend = P_dir (cell, Fwd);
            admitted = true;
            enq_ms = now
          };
        push t wb
          { line = contains_line ~id ~phi:psi ~psi:phi ~timeout_ms;
            pend = P_dir (cell, Bwd);
            admitted = true;
            enq_ms = now
          }))

(* --- metrics --- *)

let router_json t =
  let arr f =
    Json.Arr (Array.to_list (Array.map f t.workers))
  in
  Json.Obj
    [ ("shards", Json.Num (float_of_int (Array.length t.workers)));
      ("worker_restarts", Json.Num (float_of_int t.restarts));
      ("routed", arr (fun w -> Json.Num (float_of_int w.routed)));
      ("admission", arr (fun w -> Admission.to_json w.adm));
      ( "shed",
        Json.Num
          (float_of_int
             (Array.fold_left
                (fun acc w -> acc + Admission.shed_count w.adm)
                0 t.workers)) );
      (* how the cross-worker merge above combined latency shapes *)
      ( "latency_merge",
        Json.Str "request-weighted means; percentiles are approximations" )
    ]

let metrics_json t =
  let slots =
    Array.map
      (fun w ->
        let slot = ref None in
        if w.w_alive then
          push t w
            { line = sentinel;
              pend = P_probe slot;
              admitted = false;
              enq_ms = Trace.now_ms ()
            }
        else slot := Some (Json.Obj []);
        slot)
      t.workers
  in
  while Array.exists (fun s -> !s = None) slots do
    ignore (pump_io t ~timeout:0.25)
  done;
  let snaps = List.filter_map (fun s -> !s) (Array.to_list slots) in
  match merge_metrics snaps with
  | Json.Obj fields -> Some (Json.Obj (fields @ [ ("router", router_json t) ]))
  | j -> Some j

(* --- lifecycle --- *)

(* How long [close] keeps draining before killing a worker that has
   not exited. Callers drain before closing, so a worker is normally
   idle and exits the moment it reads EOF; the grace only matters for
   a worker wedged in a deadline-less solve. *)
let close_grace_s = 10.

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* closing the request pipe is the shutdown signal: the worker
       loop reads EOF and exits. Requests never sent will never be
       answered — fail them before the EOF so their clients still get
       one reply per line. *)
    Array.iter
      (fun w ->
        if w.w_alive then begin
          Queue.iter
            (fail_entry ~msg:"router closed before request was sent" t w)
            w.unsent;
          Queue.clear w.unsent;
          w.woff <- 0;
          try Unix.close w.wfd with Unix.Unix_error _ -> ()
        end)
      t.workers;
    (* A worker mid-write into a full response pipe never reaches that
       EOF, so keep draining responses (still emitting them) until each
       response pipe reports EOF — jumping straight to [waitpid] here
       would deadlock against such a worker. EOF lands in [worker_died]:
       remaining in-flight entries answer structured errors, the child
       is reaped, and [t.closed] suppresses the respawn. *)
    let give_up = Trace.now_ms () +. (close_grace_s *. 1000.) in
    while
      Array.exists (fun w -> w.w_alive) t.workers
      && Trace.now_ms () < give_up
    do
      ignore (pump_io t ~timeout:0.25)
    done;
    Array.iter
      (fun w ->
        if w.w_alive then begin
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          worker_died t w
        end)
      t.workers
  end

let engine ?(queue_depth = 64) ?default_timeout_ms ?(trace = false)
    ?chaos_crash_id ?make_service ~shards ~emit config =
  let shards = max 1 shards in
  let make_service =
    match make_service with
    | Some f -> f
    | None -> fun ~shard:_ -> Service.create config
  in
  (* a worker death shows up as EOF on its response pipe; a write to a
     dying worker must report EPIPE, not kill the router *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    { fingerprint = Service.Config.fingerprint config.Service.Config.solver;
      default_timeout_ms;
      trace;
      chaos_crash_id;
      make_service;
      emit;
      workers =
        Array.init shards (fun i ->
            { w_index = i;
              pid = -1;
              wfd = Unix.stdin;
              rfd = Unix.stdin;
              w_alive = false;
              unsent = Queue.create ();
              woff = 0;
              sent = Queue.create ();
              rbuf = Buffer.create 4096;
              adm = Admission.create ~max_depth:queue_depth ();
              last_done = 0.;
              routed = 0
            });
      rdbuf = Bytes.create 65536;
      restarts = 0;
      closed = false
    }
  in
  for i = 0 to shards - 1 do
    spawn t i
  done;
  Engine.make
    ~submit:(fun line -> submit t line)
    ~pump:(fun () -> ignore (pump_io t ~timeout:0.))
    ~drain:(fun () -> drain t)
    ~pending:(fun () -> pending t)
    ~wait:(fun fds timeout -> pump_io t ~extra_rds:fds ~timeout)
    ~metrics_json:(fun () -> metrics_json t)
    ~close:(fun () -> close t)
    ()
