type 'v ticket = {
  key : string;
  mutable outcome : 'v option;
      (** [None] after landing when the leader produced nothing shareable *)
  mutable landed : bool;
  mutable waiters : int;
  cond : Condition.t;
}

type 'v t = {
  lock : Mutex.t;
  cache : 'v Lru.t;
  admit : 'v -> bool;
  cells : (string, 'v ticket) Hashtbl.t;
  probe_phase : string;
  wait_phase : string;
}

let create ?(phase_prefix = "") ~lock ~cache ~admit () =
  { lock;
    cache;
    admit;
    cells = Hashtbl.create 64;
    probe_phase = phase_prefix ^ "cache_probe";
    wait_phase = phase_prefix ^ "flight_wait"
  }

let waiters t = Hashtbl.fold (fun _ c acc -> acc + c.waiters) t.cells 0

let publish t c outcome =
  if not c.landed then
    Mutex.protect t.lock (fun () ->
        Option.iter
          (fun v -> if t.admit v then Lru.add t.cache c.key v)
          outcome;
        c.outcome <- outcome;
        c.landed <- true;
        Hashtbl.remove t.cells c.key;
        Condition.broadcast c.cond)

let rec run t ~trace key ~hit ~join ~lead =
  Trace.mark trace t.probe_phase;
  let step =
    Mutex.protect t.lock (fun () ->
        match Lru.find t.cache key with
        | Some v -> `Hit v
        | None -> (
          match Hashtbl.find_opt t.cells key with
          | Some c ->
            c.waiters <- c.waiters + 1;
            `Join c
          | None ->
            let c =
              { key;
                outcome = None;
                landed = false;
                waiters = 0;
                cond = Condition.create ()
              }
            in
            Hashtbl.replace t.cells key c;
            `Lead c))
  in
  match step with
  | `Hit v -> hit v
  | `Join c -> (
    Trace.mark trace t.wait_phase;
    let outcome =
      Mutex.protect t.lock (fun () ->
          while not c.landed do
            Condition.wait c.cond t.lock
          done;
          c.waiters <- c.waiters - 1;
          c.outcome)
    in
    match Option.bind outcome join with
    | Some r -> r
    | None ->
      (* nothing shareable landed: try again ourselves, under our own
         deadline *)
      run t ~trace key ~hit ~join ~lead)
  | `Lead c -> (
    (* a leader that raises (or returns without publishing) must never
       strand its waiters *)
    match lead c with
    | r ->
      publish t c None;
      r
    | exception e ->
      publish t c None;
      raise e)
