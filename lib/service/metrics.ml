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
  acc : acc;
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
    acc =
      {
        latency_min = infinity;
        latency_max = 0.;
        latency_sum = 0.;
        cert_latency_sum = 0.;
        cert_latency_max = 0.;
        store_verify_sum = 0.;
        store_verify_max = 0.;
      };
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

let count n = Json.Num (float_of_int n)
let mean sum n = Json.Num (if n = 0 then 0. else sum /. float_of_int n)

(* A mean over a subset of the requests carries its sample count [n],
   by which the shard router weights it when merging. *)
let sampled ~n ~sum ~max =
  Json.Obj [ ("n", count n); ("mean", mean sum n); ("max", Json.Num max) ]

let to_json (m : t) =
  let a = m.acc in
  Json.Obj
    [ ("requests", count m.requests);
      ("cache_hits", count m.cache_hits);
      ("cache_misses", count m.cache_misses);
      ( "verdicts",
        Json.Obj
          [ ("sat", count m.sat);
            ("unsat", count m.unsat);
            ("unsat_bounded", count m.unsat_bounded);
            ("unknown", count m.unknown)
          ] );
      ("deadline_timeouts", count m.deadline_timeouts);
      ( "requests_by_kind",
        Json.Obj
          [ ("sat", count m.sat_requests);
            ("eval", count m.eval_requests);
            ("contains", count m.contains_requests);
            ("equiv", count m.equiv_requests);
            ("sat_under_doctype", count m.doctype_requests)
          ] );
      ( "eval",
        Json.Obj
          [ ("requests", count m.eval_requests);
            ("cache_hits", count m.eval_cache_hits);
            ("errors", count m.eval_errors);
            ("deadline_timeouts", count m.eval_deadline_timeouts);
            ("node_evals", count m.eval_node_evals);
            ("docs_built", count m.eval_docs_built)
          ] );
      ("single_flight", count m.single_flight);
      ("crashes", count m.crashes);
      ( "tiers",
        (* Where requests were answered: memory = the in-process caches
           (including flight joins), disk = the
           persistent store, solve = fresh computation. *)
        Json.Obj
          [ ("memory", count (m.cache_hits - m.disk_hits));
            ("disk", count m.disk_hits);
            ("solve", count m.cache_misses)
          ] );
      ( "store",
        Json.Obj
          [ ("disk_hits", count m.disk_hits);
            ("self_evictions", count m.store_self_evictions);
            ("appends", count m.store_appends);
            ( "verify_ms",
              sampled
                ~n:(m.disk_hits + m.store_self_evictions)
                ~sum:a.store_verify_sum ~max:a.store_verify_max )
          ] );
      ( "phase_totals_ms",
        (* Sorted by phase name for a deterministic rendering. *)
        Json.Obj
          (List.sort
             (fun (a, _) (b, _) -> String.compare a b)
             (Hashtbl.fold
                (fun name p acc ->
                  (name, Json.Num (Float.round (p.total *. 1000.) /. 1000.))
                  :: acc)
                m.phase_ms [])) );
      ( "latency_ms",
        Json.Obj
          [ ("min", Json.Num (if m.requests = 0 then 0. else a.latency_min));
            ("mean", mean a.latency_sum m.requests);
            ("p95", Json.Num (p95 m));
            ("max", Json.Num a.latency_max)
          ] );
      ( "fixpoint",
        Json.Obj
          [ ("states", count m.fixpoint_states);
            ("transitions", count m.fixpoint_transitions);
            ("mergings", count m.fixpoint_mergings)
          ] );
      ( "certificates",
        Json.Obj
          [ ("certified", count m.certified);
            ("check_failures", count m.cert_check_failures);
            ( "latency_ms",
              sampled
                ~n:(m.certified + m.cert_check_failures)
                ~sum:a.cert_latency_sum ~max:a.cert_latency_max )
          ] )
    ]
