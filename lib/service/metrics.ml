module Sat = Xpds_decision.Sat
module Emptiness = Xpds_decision.Emptiness

let window = 4096

(* The float accumulators. A record whose fields are all floats is
   stored flat, so [a.f <- x] writes in place; a mutable float field of
   a mixed record boxes every update, and a box that the long-lived
   accumulator points to is promoted at the next minor GC: a few words
   of major heap per field per request. *)
type acc = {
  mutable latency_min : float;
  mutable latency_max : float;
  mutable latency_sum : float;
  mutable cert_latency_sum : float;
  mutable cert_latency_max : float;
  mutable store_verify_sum : float;
  mutable store_verify_max : float;
}

let create_acc () =
  {
    latency_min = infinity;
    latency_max = 0.;
    latency_sum = 0.;
    cert_latency_sum = 0.;
    cert_latency_max = 0.;
    store_verify_sum = 0.;
    store_verify_max = 0.;
  }

(* A per-phase total, flat for the same reason. *)
type phase_total = { mutable total : float }

type t = {
  mutable requests : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unsat_bounded : int;
  mutable unknown : int;
  mutable deadline_timeouts : int;
  mutable acc : acc;
  ring : float array;  (** last [window] latencies, for percentiles *)
  mutable ring_len : int;
  mutable ring_pos : int;
  mutable fixpoint_states : int;
  mutable fixpoint_transitions : int;
  mutable fixpoint_mergings : int;
  mutable certified : int;
  mutable cert_check_failures : int;
  mutable single_flight : int;
  mutable crashes : int;
  mutable degraded_retries : int;
  mutable disk_hits : int;
  mutable store_self_evictions : int;
  mutable store_appends : int;
  mutable sat_requests : int;
  mutable eval_requests : int;
  mutable contains_requests : int;
  mutable equiv_requests : int;
  mutable doctype_requests : int;
  mutable eval_cache_hits : int;
  mutable eval_errors : int;
  mutable eval_deadline_timeouts : int;
  mutable eval_node_evals : int;
  mutable eval_docs_built : int;
  phase_ms : (string, phase_total) Hashtbl.t;
}

type snapshot = {
  requests : int;
  cache_hits : int;
  cache_misses : int;
  sat : int;
  unsat : int;
  unsat_bounded : int;
  unknown : int;
  deadline_timeouts : int;
  latency_min_ms : float;
  latency_mean_ms : float;
  latency_p95_ms : float;
  latency_max_ms : float;
  fixpoint_states : int;
  fixpoint_transitions : int;
  fixpoint_mergings : int;
  certified : int;
  cert_check_failures : int;
  cert_latency_mean_ms : float;
  cert_latency_max_ms : float;
  single_flight : int;
  crashes : int;
  degraded_retries : int;
  disk_hits : int;
      (** the subset of [cache_hits] answered by the persistent store's
          disk tier (verified on load) *)
  store_self_evictions : int;
      (** store records dropped at probe time by verify-on-load *)
  store_appends : int;  (** verdicts persisted to the store *)
  store_verify_mean_ms : float;
      (** mean verify-on-load latency (hits and self-evictions) *)
  store_verify_max_ms : float;
  sat_requests : int;  (** requests of kind [sat] (solver verdicts) *)
  eval_requests : int;  (** requests of kind [eval] (bulk evaluation) *)
  contains_requests : int;
      (** requests of kind [contains] — including the two directions of
          every [equiv] request, which are containment solves sharing
          the contains cache entries *)
  equiv_requests : int;
      (** wire-level [equiv] requests (each also counted as two
          [contains] solves) *)
  doctype_requests : int;  (** requests of kind [sat_under_doctype] *)
  eval_cache_hits : int;
  eval_errors : int;
      (** eval requests answered with a structured error (bad document,
          oversized, unknown name — not deadlines) *)
  eval_deadline_timeouts : int;
  eval_node_evals : int;
      (** total node×subformula evaluations performed by uncached eval
          requests *)
  eval_docs_built : int;
      (** documents flattened into array form (registry registrations
          and inline-document cache misses) *)
  phases_ms : (string * float) list;
}

let create () =
  {
    requests = 0;
    cache_hits = 0;
    cache_misses = 0;
    sat = 0;
    unsat = 0;
    unsat_bounded = 0;
    unknown = 0;
    deadline_timeouts = 0;
    acc = create_acc ();
    ring = Array.make window 0.;
    ring_len = 0;
    ring_pos = 0;
    fixpoint_states = 0;
    fixpoint_transitions = 0;
    fixpoint_mergings = 0;
    certified = 0;
    cert_check_failures = 0;
    single_flight = 0;
    crashes = 0;
    degraded_retries = 0;
    disk_hits = 0;
    store_self_evictions = 0;
    store_appends = 0;
    sat_requests = 0;
    eval_requests = 0;
    contains_requests = 0;
    equiv_requests = 0;
    doctype_requests = 0;
    eval_cache_hits = 0;
    eval_errors = 0;
    eval_deadline_timeouts = 0;
    eval_node_evals = 0;
    eval_docs_built = 0;
    phase_ms = Hashtbl.create 16;
  }

let reset (m : t) =
  m.requests <- 0;
  m.cache_hits <- 0;
  m.cache_misses <- 0;
  m.sat <- 0;
  m.unsat <- 0;
  m.unsat_bounded <- 0;
  m.unknown <- 0;
  m.deadline_timeouts <- 0;
  m.acc <- create_acc ();
  m.ring_len <- 0;
  m.ring_pos <- 0;
  m.fixpoint_states <- 0;
  m.fixpoint_transitions <- 0;
  m.fixpoint_mergings <- 0;
  m.certified <- 0;
  m.cert_check_failures <- 0;
  m.single_flight <- 0;
  m.crashes <- 0;
  m.degraded_retries <- 0;
  m.disk_hits <- 0;
  m.store_self_evictions <- 0;
  m.store_appends <- 0;
  m.sat_requests <- 0;
  m.eval_requests <- 0;
  m.contains_requests <- 0;
  m.equiv_requests <- 0;
  m.doctype_requests <- 0;
  m.eval_cache_hits <- 0;
  m.eval_errors <- 0;
  m.eval_deadline_timeouts <- 0;
  m.eval_node_evals <- 0;
  m.eval_docs_built <- 0;
  Hashtbl.reset m.phase_ms

let record_latency (m : t) ms =
  let a = m.acc in
  if ms < a.latency_min then a.latency_min <- ms;
  if ms > a.latency_max then a.latency_max <- ms;
  a.latency_sum <- a.latency_sum +. ms;
  m.ring.(m.ring_pos) <- ms;
  m.ring_pos <- (m.ring_pos + 1) mod window;
  if m.ring_len < window then m.ring_len <- m.ring_len + 1

let record ?(kind = `Sat) (m : t) ~verdict ~cached ~ms
    ~(stats : Emptiness.stats) =
  m.requests <- m.requests + 1;
  (match kind with
  | `Sat -> m.sat_requests <- m.sat_requests + 1
  | `Contains -> m.contains_requests <- m.contains_requests + 1
  | `Doctype -> m.doctype_requests <- m.doctype_requests + 1);
  if cached then m.cache_hits <- m.cache_hits + 1
  else m.cache_misses <- m.cache_misses + 1;
  (match verdict with
  | Sat.Sat _ -> m.sat <- m.sat + 1
  | Sat.Unsat -> m.unsat <- m.unsat + 1
  | Sat.Unsat_bounded _ -> m.unsat_bounded <- m.unsat_bounded + 1
  | Sat.Unknown why ->
    m.unknown <- m.unknown + 1;
    if why = Emptiness.deadline_exceeded then
      m.deadline_timeouts <- m.deadline_timeouts + 1);
  record_latency m ms;
  if not cached then begin
    m.fixpoint_states <- m.fixpoint_states + stats.Emptiness.n_states;
    m.fixpoint_transitions <-
      m.fixpoint_transitions + stats.Emptiness.n_transitions;
    m.fixpoint_mergings <- m.fixpoint_mergings + stats.Emptiness.n_mergings
  end

(* Eval requests share the latency distribution with solver requests
   (both are "requests" to the served socket) but keep their own
   counters: the two workloads have wildly different cost profiles. *)
let record_eval (m : t) ~outcome ~cached ~ms ~node_evals =
  m.requests <- m.requests + 1;
  m.eval_requests <- m.eval_requests + 1;
  (match outcome with
  | `Ok -> ()
  | `Error -> m.eval_errors <- m.eval_errors + 1
  | `Deadline ->
    m.eval_deadline_timeouts <- m.eval_deadline_timeouts + 1);
  if cached then begin
    m.cache_hits <- m.cache_hits + 1;
    m.eval_cache_hits <- m.eval_cache_hits + 1
  end
  else m.cache_misses <- m.cache_misses + 1;
  m.eval_node_evals <- m.eval_node_evals + node_evals;
  record_latency m ms

let record_store_verify (m : t) ms =
  let a = m.acc in
  a.store_verify_sum <- a.store_verify_sum +. ms;
  if ms > a.store_verify_max then a.store_verify_max <- ms

let record_disk_hit (m : t) ~verify_ms =
  m.disk_hits <- m.disk_hits + 1;
  record_store_verify m verify_ms

let record_store_self_eviction (m : t) ~verify_ms =
  m.store_self_evictions <- m.store_self_evictions + 1;
  record_store_verify m verify_ms

let record_store_append (m : t) = m.store_appends <- m.store_appends + 1
let record_doc_built (m : t) = m.eval_docs_built <- m.eval_docs_built + 1
let record_equiv (m : t) = m.equiv_requests <- m.equiv_requests + 1
let record_single_flight (m : t) = m.single_flight <- m.single_flight + 1
let record_crash (m : t) = m.crashes <- m.crashes + 1

let record_degraded (m : t) =
  m.degraded_retries <- m.degraded_retries + 1

let record_trace (m : t) trace =
  Trace.iter_spans
    (fun name ms ->
      match Hashtbl.find_opt m.phase_ms name with
      | Some p -> p.total <- p.total +. ms
      | None -> Hashtbl.add m.phase_ms name { total = ms })
    trace

(* Certificate checks are recorded separately from requests: a check is
   optional post-processing of a verdict, and its cost (the naive
   verifier) must not pollute the solver latency distribution. *)
let record_cert (m : t) ~ok ~ms =
  if ok then m.certified <- m.certified + 1
  else m.cert_check_failures <- m.cert_check_failures + 1;
  let a = m.acc in
  a.cert_latency_sum <- a.cert_latency_sum +. ms;
  if ms > a.cert_latency_max then a.cert_latency_max <- ms

let p95 (m : t) =
  if m.ring_len = 0 then 0.
  else begin
    let xs = Array.sub m.ring 0 m.ring_len in
    Array.sort Float.compare xs;
    let rank =
      min (m.ring_len - 1)
        (int_of_float (Float.round (0.95 *. float_of_int (m.ring_len - 1))))
    in
    xs.(rank)
  end

let snapshot (m : t) : snapshot =
  {
    requests = m.requests;
    cache_hits = m.cache_hits;
    cache_misses = m.cache_misses;
    sat = m.sat;
    unsat = m.unsat;
    unsat_bounded = m.unsat_bounded;
    unknown = m.unknown;
    deadline_timeouts = m.deadline_timeouts;
    latency_min_ms = (if m.requests = 0 then 0. else m.acc.latency_min);
    latency_mean_ms =
      (if m.requests = 0 then 0.
       else m.acc.latency_sum /. float_of_int m.requests);
    latency_p95_ms = p95 m;
    latency_max_ms = m.acc.latency_max;
    fixpoint_states = m.fixpoint_states;
    fixpoint_transitions = m.fixpoint_transitions;
    fixpoint_mergings = m.fixpoint_mergings;
    certified = m.certified;
    cert_check_failures = m.cert_check_failures;
    cert_latency_mean_ms =
      (let n = m.certified + m.cert_check_failures in
       if n = 0 then 0. else m.acc.cert_latency_sum /. float_of_int n);
    cert_latency_max_ms = m.acc.cert_latency_max;
    single_flight = m.single_flight;
    crashes = m.crashes;
    degraded_retries = m.degraded_retries;
    disk_hits = m.disk_hits;
    store_self_evictions = m.store_self_evictions;
    store_appends = m.store_appends;
    store_verify_mean_ms =
      (let n = m.disk_hits + m.store_self_evictions in
       if n = 0 then 0. else m.acc.store_verify_sum /. float_of_int n);
    store_verify_max_ms = m.acc.store_verify_max;
    sat_requests = m.sat_requests;
    eval_requests = m.eval_requests;
    contains_requests = m.contains_requests;
    equiv_requests = m.equiv_requests;
    doctype_requests = m.doctype_requests;
    eval_cache_hits = m.eval_cache_hits;
    eval_errors = m.eval_errors;
    eval_deadline_timeouts = m.eval_deadline_timeouts;
    eval_node_evals = m.eval_node_evals;
    eval_docs_built = m.eval_docs_built;
    phases_ms =
      (* Sorted for a deterministic JSON rendering. *)
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k p acc -> (k, p.total) :: acc) m.phase_ms []);
  }

let to_json (s : snapshot) =
  Json.Obj
    [ ("requests", Json.Num (float_of_int s.requests));
      ("cache_hits", Json.Num (float_of_int s.cache_hits));
      ("cache_misses", Json.Num (float_of_int s.cache_misses));
      ( "verdicts",
        Json.Obj
          [ ("sat", Json.Num (float_of_int s.sat));
            ("unsat", Json.Num (float_of_int s.unsat));
            ("unsat_bounded", Json.Num (float_of_int s.unsat_bounded));
            ("unknown", Json.Num (float_of_int s.unknown))
          ] );
      ("deadline_timeouts", Json.Num (float_of_int s.deadline_timeouts));
      ( "requests_by_kind",
        Json.Obj
          [ ("sat", Json.Num (float_of_int s.sat_requests));
            ("eval", Json.Num (float_of_int s.eval_requests));
            ("contains", Json.Num (float_of_int s.contains_requests));
            ("equiv", Json.Num (float_of_int s.equiv_requests));
            ( "sat_under_doctype",
              Json.Num (float_of_int s.doctype_requests) )
          ] );
      ( "eval",
        Json.Obj
          [ ("requests", Json.Num (float_of_int s.eval_requests));
            ("cache_hits", Json.Num (float_of_int s.eval_cache_hits));
            ("errors", Json.Num (float_of_int s.eval_errors));
            ( "deadline_timeouts",
              Json.Num (float_of_int s.eval_deadline_timeouts) );
            ("node_evals", Json.Num (float_of_int s.eval_node_evals));
            ("docs_built", Json.Num (float_of_int s.eval_docs_built))
          ] );
      ("single_flight", Json.Num (float_of_int s.single_flight));
      ("crashes", Json.Num (float_of_int s.crashes));
      ("degraded_retries", Json.Num (float_of_int s.degraded_retries));
      ( "tiers",
        (* Where requests were answered: memory = the in-process caches
           (including flight joins and in-batch duplicates), disk = the
           persistent store, solve = fresh computation. *)
        Json.Obj
          [ ( "memory",
              Json.Num (float_of_int (s.cache_hits - s.disk_hits)) );
            ("disk", Json.Num (float_of_int s.disk_hits));
            ("solve", Json.Num (float_of_int s.cache_misses))
          ] );
      ( "store",
        Json.Obj
          [ ("disk_hits", Json.Num (float_of_int s.disk_hits));
            ( "self_evictions",
              Json.Num (float_of_int s.store_self_evictions) );
            ("appends", Json.Num (float_of_int s.store_appends));
            ( "verify_ms",
              Json.Obj
                [ ("mean", Json.Num s.store_verify_mean_ms);
                  ("max", Json.Num s.store_verify_max_ms)
                ] )
          ] );
      ( "phase_totals_ms",
        Json.Obj
          (List.map
             (fun (name, ms) ->
               (name, Json.Num (Float.round (ms *. 1000.) /. 1000.)))
             s.phases_ms) );
      ( "latency_ms",
        Json.Obj
          [ ("min", Json.Num s.latency_min_ms);
            ("mean", Json.Num s.latency_mean_ms);
            ("p95", Json.Num s.latency_p95_ms);
            ("max", Json.Num s.latency_max_ms)
          ] );
      ( "fixpoint",
        Json.Obj
          [ ("states", Json.Num (float_of_int s.fixpoint_states));
            ("transitions", Json.Num (float_of_int s.fixpoint_transitions));
            ("mergings", Json.Num (float_of_int s.fixpoint_mergings))
          ] );
      ( "certificates",
        Json.Obj
          [ ("certified", Json.Num (float_of_int s.certified));
            ( "check_failures",
              Json.Num (float_of_int s.cert_check_failures) );
            ( "latency_ms",
              Json.Obj
                [ ("mean", Json.Num s.cert_latency_mean_ms);
                  ("max", Json.Num s.cert_latency_max_ms)
                ] )
          ] )
    ]

let pp ppf (s : snapshot) =
  Format.fprintf ppf
    "@[<v>requests: %d (sat %d, eval %d, contains %d, equiv %d, \
     doctype %d; hits %d, misses %d, single-flight %d)@,\
     eval: %d hits, %d errors, %d deadline, %d node-evals, %d docs \
     built@,\
     verdicts: sat %d, unsat %d, unsat_bounded %d, unknown %d (%d \
     deadline)@,\
     robustness: %d crashes isolated, %d degraded retries@,\
     tiers: %d memory, %d disk, %d solved; store: %d self-evictions, \
     %d appends (verify mean %.2f ms, max %.2f ms)@,\
     latency ms: min %.2f, mean %.2f, p95 %.2f, max %.2f@,\
     phase totals ms:%a@,\
     fixpoint totals: %d states, %d transitions, %d mergings@,\
     certificates: %d certified, %d check failures (mean %.2f ms, max \
     %.2f ms)@]"
    s.requests s.sat_requests s.eval_requests s.contains_requests
    s.equiv_requests s.doctype_requests s.cache_hits s.cache_misses
    s.single_flight s.eval_cache_hits s.eval_errors
    s.eval_deadline_timeouts s.eval_node_evals s.eval_docs_built s.sat
    s.unsat
    s.unsat_bounded s.unknown s.deadline_timeouts s.crashes
    s.degraded_retries
    (s.cache_hits - s.disk_hits)
    s.disk_hits s.cache_misses s.store_self_evictions s.store_appends
    s.store_verify_mean_ms s.store_verify_max_ms s.latency_min_ms
    s.latency_mean_ms
    s.latency_p95_ms s.latency_max_ms
    (fun ppf phases ->
      if phases = [] then Format.pp_print_string ppf " (none)"
      else
        List.iter
          (fun (name, ms) -> Format.fprintf ppf " %s %.2f;" name ms)
          phases)
    s.phases_ms s.fixpoint_states s.fixpoint_transitions
    s.fixpoint_mergings s.certified
    s.cert_check_failures s.cert_latency_mean_ms s.cert_latency_max_ms
