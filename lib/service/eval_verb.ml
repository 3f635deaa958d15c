module Eval_doc = Xpds_eval.Doc
module Eval = Xpds_eval.Eval
module Data_tree = Xpds_datatree.Data_tree
module Path_ = Xpds_datatree.Path
module Xml_doc = Xpds_datatree.Xml_doc
module Pp = Xpds_xpath.Pp
module Emptiness = Xpds_decision.Emptiness

type result = {
  root : bool;
  count : int;
  positions : string;
  truncated : bool;
  doc_nodes : int;
  node_evals : int;
}

type response = {
  id : string;
  result : (result, string) Stdlib.result;
  cached : bool;
  ms : float;
  trace : Trace.t;
}

(* One flattened document plus its shared evaluator. The evaluator's
   memo is the cross-request batching win (formula batches over one
   document pay for each distinct subformula once), so it lives with
   the document — guarded by its own lock, with the current request's
   deadline threaded through a ref the [should_stop] hook reads. *)
type entry = {
  doc : Eval_doc.t;
  digest : string;  (** document identity for result keys *)
  eval : Eval.t;
  lock : Mutex.t;
  deadline : float option ref;
}

type t = {
  lock : Mutex.t;  (** the service mutex: guards everything below *)
  meters : Metrics.t;
  max_doc_nodes : int;
  docs : (string, entry) Hashtbl.t;  (** named registry *)
  inline_docs : entry Lru.t;  (** inline sources, by source digest *)
  flight : result Flight.t;  (** the result cache *)
}

(* LRU entries of the inline-document cache (flattened documents keyed
   by source digest) and of the result cache. *)
let doc_cache_capacity = 64
let eval_cache_capacity = 4096

let create ~lock ~meters ~max_doc_nodes =
  { lock;
    meters;
    max_doc_nodes;
    docs = Hashtbl.create 16;
    inline_docs = Lru.create ~capacity:doc_cache_capacity;
    flight =
      Flight.create ~phase_prefix:"eval_" ~lock
        ~cache:(Lru.create ~capacity:eval_cache_capacity)
        ~admit:(fun _ -> true) ()
  }

let oversized_doc_error t n =
  Printf.sprintf "document too large: %d nodes (max_doc_nodes = %d)" n
    t.max_doc_nodes

(* The document's identity for result keys: a content digest, so the
   same document reaches the same cache entries whether it arrived
   inline or via the registry, and re-registering a name with different
   content can never serve stale results. [Doc.t] is all int arrays, so
   marshalling is a stable byte rendering. *)
let entry_of_doc (doc : Eval_doc.t) =
  let deadline = ref None in
  let should_stop () =
    match !deadline with Some d -> Trace.now_ms () > d | None -> false
  in
  { doc;
    digest = Digest.string (Marshal.to_string doc []);
    eval = Eval.create ~should_stop doc;
    lock = Mutex.create ();
    deadline
  }

let register_doc t ~name doc =
  let n = doc.Eval_doc.n in
  if n > t.max_doc_nodes then Error (oversized_doc_error t n)
  else begin
    let entry = entry_of_doc doc in
    Mutex.protect t.lock (fun () ->
        Metrics.record_doc_built t.meters;
        Hashtbl.replace t.docs name entry);
    Ok ()
  end

let registered_docs t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun name e acc -> (name, e.doc.Eval_doc.n) :: acc) t.docs [])
  |> List.sort compare

(* Inline sources are parsed and flattened at most once per source text
   (LRU by source digest), so a client replaying queries against the
   same inline document reuses the entry — and with it the evaluator's
   cross-request memo. *)
let inline_entry t ~tag text build =
  let skey = Digest.string (tag ^ text) in
  match Mutex.protect t.lock (fun () -> Lru.find t.inline_docs skey) with
  | Some e -> Ok e
  | None -> (
    match build text with
    | Error _ as e -> e
    | Ok doc when doc.Eval_doc.n > t.max_doc_nodes ->
      Error (oversized_doc_error t doc.Eval_doc.n)
    | Ok doc ->
      let entry = entry_of_doc doc in
      Mutex.protect t.lock (fun () ->
          Metrics.record_doc_built t.meters;
          Lru.add t.inline_docs skey entry);
      Ok entry)

let resolve_entry t (source : Request.source) =
  match source with
  | Doc_named name -> (
    match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.docs name) with
    | Some e -> Ok e
    | None ->
      Error
        (Printf.sprintf
           "unknown document %S (serve it inline via \"xml\"/\"tree\", \
            or register it at startup)"
           name))
  | Doc_xml text ->
    inline_entry t ~tag:"xml:" text (fun text ->
        match Xml_doc.parse text with
        | Error e -> Error (Printf.sprintf "bad xml: %s" e)
        | Ok xml -> Ok (Eval_doc.of_xml xml))
  | Doc_tree text ->
    inline_entry t ~tag:"tree:" text (fun text ->
        match Data_tree.of_string text with
        | Error e -> Error (Printf.sprintf "bad tree: %s" e)
        | Ok tree -> Ok (Eval_doc.of_tree tree))

let default_position_limit = 100

(* The first [limit] satisfying positions in preorder, rendered once as
   the JSON array the wire carries, without materialising the rest — a
   query selecting half a 200k-node document still answers with a
   bounded line. A position string is digits, dots or "ε", so it needs
   no JSON escape. *)
let bounded_positions doc set ~count ~limit =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '[';
  let taken = ref 0 in
  (try
     Bitv.iter
       (fun x ->
         if !taken >= limit then raise Exit;
         if !taken > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '"';
         Path_.add_to_buffer buf (Eval_doc.position doc x);
         Buffer.add_char buf '"';
         incr taken)
       set
   with Exit -> ());
  Buffer.add_char buf ']';
  (Buffer.contents buf, count > limit)

(* Runs the query on the entry's shared evaluator. The deadline ref is
   set for the duration of the evaluation under the entry lock (one
   evaluation at a time per document — the memo tables are
   single-domain mutable state); [Eval.Deadline] leaves the memo valid,
   so a timed-out request never poisons later ones. *)
let eval_uncached entry ~trace ~deadline ~limit query =
  Trace.mark trace "eval_run";
  let before = Eval.node_evals entry.eval in
  let outcome =
    Mutex.protect entry.lock (fun () ->
        entry.deadline := deadline;
        let r =
          match Eval.nodes entry.eval query with
          | set -> Ok set
          | exception Eval.Deadline -> Error Emptiness.deadline_exceeded
        in
        entry.deadline := None;
        r)
  in
  let node_evals = Eval.node_evals entry.eval - before in
  Trace.mark trace "eval_positions";
  let result =
    Result.map
      (fun set ->
        let count = Bitv.cardinal set in
        let positions, truncated = bounded_positions entry.doc set ~count ~limit in
        { root = Bitv.mem 0 set;
          count;
          positions;
          truncated;
          doc_nodes = entry.doc.Eval_doc.n;
          node_evals
        })
      outcome
  in
  (result, node_evals)

let finish t ~id ~trace ~result ~cached ~flight ~node_evals =
  Trace.finish trace;
  let ms = Trace.elapsed_ms trace in
  let outcome =
    match result with
    | Ok _ -> `Ok
    | Error why when why = Emptiness.deadline_exceeded -> `Deadline
    | Error _ -> `Error
  in
  Mutex.protect t.lock (fun () ->
      Metrics.record_eval t.meters ~outcome ~cached ~ms ~node_evals;
      if flight then Metrics.record_single_flight t.meters;
      Metrics.record_trace t.meters trace);
  { id; result; cached; ms; trace }

let eval t ~trace ~id ~deadline ~query ~source ~limit =
  Trace.mark trace "eval_resolve";
  match resolve_entry t source with
  | Error e ->
    finish t ~id ~trace ~result:(Error e) ~cached:false ~flight:false ~node_evals:0
  | Ok entry ->
    let limit = max 0 (Option.value limit ~default:default_position_limit) in
    (* The printed parsed query keys the cache (so texts differing
       only in whitespace share an entry), not the canonical form:
       canonicalization is only proven semantics-preserving for
       satisfiability (root evaluation), while eval reports every
       selected position. *)
    let key =
      Digest.string
        (String.concat "\x00"
           [ entry.digest; Pp.node_to_string query; string_of_int limit ])
    in
    Flight.run t.flight ~trace key
      ~hit:(fun res ->
        finish t ~id ~trace ~result:(Ok res) ~cached:true ~flight:false ~node_evals:0)
      ~join:(fun res ->
        Some (finish t ~id ~trace ~result:(Ok res) ~cached:true ~flight:true ~node_evals:0))
      ~lead:(fun ticket ->
        (* errors and deadline timeouts are never shared: a waiter's own
           deadline may differ *)
        let result, node_evals = eval_uncached entry ~trace ~deadline ~limit query in
        Flight.publish t.flight ticket (Result.to_option result);
        finish t ~id ~trace ~result ~cached:false ~flight:false ~node_evals)
