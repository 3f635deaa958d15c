(* Tests for the persistent verdict store (lib/store): CRC correctness,
   record JSON round trips, log damage semantics, header invalidation,
   verify-on-load self-eviction, snapshot export/import, the service's
   disk tier, and a byte-flip mutation suite over a real store file
   asserting corruption is detected or evicted — never served. *)

module Crc32 = Xpds_store.Crc32
module Record = Xpds_store.Record
module Log = Xpds_store.Log
module Store = Xpds_store.Store
module Service = Xpds_service.Service
module Request = Xpds_service.Request
module Cache_key = Xpds_service.Cache_key
module Lru = Xpds_service.Lru
module Data_tree = Xpds_datatree.Data_tree
module Sat = Xpds_decision.Sat

let parse s =
  match Xpds_xpath.Parser.formula_of_string s with
  | Ok f -> Xpds_xpath.Ast.as_node f
  | Error e -> Alcotest.failf "parse %S: %s" s e

let tmp_path =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xpds_t_store_%d_%d_%s" (Unix.getpid ()) !n name)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let default_fp = Service.Config.(fingerprint default_solver)

let open_rw ?verify path =
  match
    Store.open_rw ?verify ~path ~protocol_version:Service.protocol_version
      ~config_fingerprint:default_fp ()
  with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "open_rw %s: %s" path e

let keyed formula =
  let canon, key =
    Cache_key.make ~config_fingerprint:default_fp (parse formula)
  in
  (Cache_key.hex key, canon)

(* Solve [formulas] through a service backed by a fresh store at a tmp
   path; returns (path, [(hex key, canon, verdict name)]). *)
let solved_store ?(name = "seed") formulas =
  let path = tmp_path (name ^ ".xpds") in
  let store, _ = open_rw path in
  let svc = Service.create ~store Service.Config.default in
  let facts =
    List.map
      (fun f ->
        let resp =
          Corpus.solve svc
            { Request.id = f; timeout_ms = None; body = Sat (parse f) }
        in
        let key, canon = keyed f in
        (key, canon, Service.verdict_name resp.Service.report.Sat.verdict))
      formulas
  in
  Store.close store;
  (path, facts)

let fixtures =
  [ "<down[a]>"; "down[a] = down[b]"; "<down[a & b]>";
    "<down[a & down[b] != down[b]]>"
  ]

(* --- CRC-32 --- *)

let test_crc_known_answer () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int)
    "crc32(123456789)" 0xCBF43926
    (Crc32.string "123456789");
  Alcotest.(check int) "crc32(empty)" 0 (Crc32.string "")

let test_crc_chaining () =
  let whole = Crc32.string "hello world" in
  let chained = Crc32.string ~crc:(Crc32.string "hello ") "world" in
  Alcotest.(check int) "chained = whole" whole chained

(* Bit by bit, no table: the definition the sliced kernel must match. *)
let crc_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

(* Every length 0-64 at a random offset into a random buffer, so the
   4-byte loop meets every alignment and every tail length; and each
   such slice chained through [~crc] at a random split point. *)
let test_crc_kernel () =
  let st = Random.State.make [| 20 |] in
  let buf = String.init 256 (fun _ -> Char.chr (Random.State.int st 256)) in
  for round = 1 to 8 do
    for len = 0 to 64 do
      let off = Random.State.int st (String.length buf - len + 1) in
      let s = String.sub buf off len in
      let name = Printf.sprintf "round %d, length %d at %d" round len off in
      let whole = Crc32.string s in
      Alcotest.(check int) name (crc_bitwise s) whole;
      let cut = Random.State.int st (len + 1) in
      Alcotest.(check int) (name ^ ", split at " ^ string_of_int cut) whole
        (Crc32.string
           ~crc:(Crc32.string (String.sub s 0 cut))
           (String.sub s cut (len - cut)))
    done
  done

(* --- record JSON round trips --- *)

let tree_gen =
  let open QCheck.Gen in
  let label =
    oneof
      [ oneofl [ "a"; "b"; "long_label$2"; "#x" ];
        (* non-identifier labels exercise the quoted witness syntax *)
        oneofl [ "with space"; "wei:rd(label)"; "1starts_with_digit"; "" ]
      ]
  in
  fix
    (fun self depth ->
      let* l = label and* d = int_bound 9 in
      if depth = 0 then return (Data_tree.node l d [])
      else
        let* kids = list_size (int_bound 3) (self (depth - 1)) in
        return (Data_tree.node l d kids))
    2

let record_gen =
  let open QCheck.Gen in
  let* verdict =
    oneof
      [ map (fun t -> Record.Sat t) tree_gen;
        return Record.Unsat;
        map (fun s -> Record.Unsat_bounded s) string_printable;
        map (fun s -> Record.Unknown s) string_printable
      ]
  in
  let* q = int_bound 50 and* k = int_bound 10 in
  let* states = int_bound 10_000 and* transitions = int_bound 10_000 in
  let* mergings = int_bound 1_000 and* height = int_bound 40 in
  let* verified = oneofl [ None; Some true; Some false ] in
  let* kind = oneofl [ "sat"; "contains"; "sat_under_doctype" ] in
  let* scope = oneofl [ ""; "a{1*b|}"; "a{|c};b{2*a|}" ] in
  let r =
    {
      Record.key = "0123456789abcdef0123456789abcdef";
      kind;
      scope;
      formula = "<down[a]>";
      verdict;
      fragment = "XPath(v,=)";
      algorithm = "emptiness";
      automaton_q = q;
      automaton_k = k;
      n_states = states;
      n_transitions = transitions;
      n_mergings = mergings;
      max_height = height;
      witness_verified = verified;
      fingerprint = "";
    }
  in
  return { r with Record.fingerprint = Record.fingerprint r }

let record_equal (a : Record.t) (b : Record.t) =
  a.Record.key = b.Record.key
  && a.Record.kind = b.Record.kind
  && a.Record.scope = b.Record.scope
  && a.Record.formula = b.Record.formula
  && (match (a.Record.verdict, b.Record.verdict) with
     | Record.Sat w1, Record.Sat w2 -> Data_tree.equal w1 w2
     | Record.Unsat, Record.Unsat -> true
     | Record.Unsat_bounded x, Record.Unsat_bounded y -> x = y
     | Record.Unknown x, Record.Unknown y -> x = y
     | _ -> false)
  && a.Record.fragment = b.Record.fragment
  && a.Record.algorithm = b.Record.algorithm
  && a.Record.automaton_q = b.Record.automaton_q
  && a.Record.automaton_k = b.Record.automaton_k
  && a.Record.n_states = b.Record.n_states
  && a.Record.n_transitions = b.Record.n_transitions
  && a.Record.n_mergings = b.Record.n_mergings
  && a.Record.max_height = b.Record.max_height
  && a.Record.witness_verified = b.Record.witness_verified
  && a.Record.fingerprint = b.Record.fingerprint

let record_roundtrip =
  QCheck.Test.make ~count:300 ~name:"record JSON round trip"
    (QCheck.make record_gen) (fun r ->
      match Record.of_json (Record.to_json r) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok r' ->
        record_equal r r'
        (* and the fingerprint still verifies after the round trip *)
        && Record.fingerprint r' = r'.Record.fingerprint)

(* --- log damage semantics --- *)

let test_log_truncated_tail () =
  let path = tmp_path "log.xpds" in
  let w = Log.create ~path ~header:"HDR" in
  Log.append w "first";
  Log.append w "second";
  Log.append w "third";
  Log.close w;
  let clean = read_file path in
  (* chop 3 bytes off the last frame: a crash mid-append *)
  write_file path (String.sub clean 0 (String.length clean - 3));
  (match Log.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
    Alcotest.(check (option string)) "header kept" (Some "HDR") s.Log.header;
    Alcotest.(check (list string))
      "damaged tail dropped" [ "first"; "second" ] s.Log.frames;
    Alcotest.(check bool) "bytes dropped" true (s.Log.dropped_bytes > 0);
    (* re-opening for append truncates back to the valid prefix *)
    let w = Log.open_append ~path ~valid_end:s.Log.valid_end in
    Log.append w "fourth";
    Log.close w);
  match Log.scan path with
  | Error e -> Alcotest.failf "rescan: %s" e
  | Ok s ->
    Alcotest.(check (list string))
      "self-healed" [ "first"; "second"; "fourth" ] s.Log.frames;
    Alcotest.(check int) "no residual damage" 0 s.Log.dropped_bytes

let test_log_bad_magic () =
  let path = tmp_path "magic.xpds" in
  let w = Log.create ~path ~header:"HDR" in
  Log.append w "payload";
  Log.close w;
  let b = Bytes.of_string (read_file path) in
  Bytes.set b 0 'X';
  write_file path (Bytes.to_string b);
  match Log.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
    Alcotest.(check (option string)) "whole file invalid" None s.Log.header

let test_log_oversized_length () =
  let path = tmp_path "oversize.xpds" in
  let w = Log.create ~path ~header:"HDR" in
  Log.append w "keep";
  Log.close w;
  (* append a frame whose length prefix claims > max_frame *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o600 path
  in
  output_string oc "\xff\xff\xff\xff garbage";
  close_out oc;
  match Log.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
    Alcotest.(check (list string)) "prefix kept" [ "keep" ] s.Log.frames;
    Alcotest.(check bool) "suffix dropped" true (s.Log.dropped_bytes > 0)

(* --- header invalidation --- *)

let test_version_mismatch_invalidates () =
  let path, _ = solved_store ~name:"vmis" [ "<down[a]>" ] in
  (* same path, different solver config fingerprint: restart empty *)
  match
    Store.open_rw ~path ~protocol_version:Service.protocol_version
      ~config_fingerprint:"other-config" ()
  with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (store, info) ->
    Alcotest.(check bool) "invalidated" true info.Store.invalidated;
    Alcotest.(check int) "restarted empty" 0 info.Store.records;
    Store.close store;
    (* the file on disk now carries the new header *)
    (match Store.file_stats path with
    | Error e -> Alcotest.failf "stats: %s" e
    | Ok s ->
      Alcotest.(check string) "new config" "other-config" s.Store.fs_config;
      Alcotest.(check int) "no records" 0 s.Store.fs_live)

let test_protocol_mismatch_invalidates () =
  let path, _ = solved_store ~name:"pmis" [ "<down[a]>" ] in
  match
    Store.open_rw ~path
      ~protocol_version:(Service.protocol_version + 1)
      ~config_fingerprint:default_fp ()
  with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (store, info) ->
    Alcotest.(check bool) "invalidated" true info.Store.invalidated;
    Store.close store

(* --- verify-on-load and self-eviction --- *)

let append_record path (r : Record.t) =
  match Log.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
    let w = Log.open_append ~path ~valid_end:s.Log.valid_end in
    Log.append w
      (Json.to_string
         (Json.Obj [ ("t", Json.Str "r"); ("rec", Record.to_json r) ]));
    Log.close w

let first_record path =
  match Log.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
    let rec go = function
      | [] -> Alcotest.fail "no record frame"
      | p :: rest -> (
        match Json.parse p with
        | Ok j when Json.member "t" j = Some (Json.Str "r") -> (
          match Option.map Record.of_json (Json.member "rec" j) with
          | Some (Ok r) -> r
          | _ -> go rest)
        | _ -> go rest)
    in
    go s.Log.frames

let test_doctored_verdict_evicted () =
  let path, facts = solved_store ~name:"forge" [ "<down[a]>" ] in
  let key, canon, _ = List.hd facts in
  let r = first_record path in
  (* flip the verdict, keep the now-stale fingerprint: the frame CRC is
     valid, only verify-on-load stands in the way *)
  append_record path { r with Record.verdict = Record.Unsat };
  let store, info = open_rw path in
  Alcotest.(check int) "forged record is the index winner" 1
    info.Store.records;
  (match Store.probe store ~key ~canon with
  | Store.Evicted (reason, _) ->
    Alcotest.(check bool)
      "fingerprint mismatch" true
      (String.length reason > 0)
  | Store.Hit _ -> Alcotest.fail "doctored record served"
  | Store.Miss -> Alcotest.fail "expected an eviction, got a miss");
  Alcotest.(check int) "self-eviction counted" 1
    (Store.counters store).Store.self_evictions;
  (* the probe appended a tombstone: dead across reopen too *)
  Store.close store;
  let store, info = open_rw path in
  Alcotest.(check int) "tombstone survives reopen" 0 info.Store.records;
  (match Store.probe store ~key ~canon with
  | Store.Miss -> ()
  | _ -> Alcotest.fail "tombstoned key resurfaced");
  Store.close store

let test_transplanted_record_evicted () =
  (* a record copied under another formula's key: the stored canonical
     formula no longer matches the probing request's *)
  let path, facts =
    solved_store ~name:"transplant" [ "<down[a]>"; "<down[b]>" ]
  in
  let key_b, canon_b, _ = List.nth facts 1 in
  let r = first_record path in
  append_record path { r with Record.key = key_b };
  let store, _ = open_rw path in
  (match Store.probe store ~key:key_b ~canon:canon_b with
  | Store.Evicted _ -> ()
  | Store.Hit _ -> Alcotest.fail "transplanted record served"
  | Store.Miss -> Alcotest.fail "expected an eviction");
  Store.close store

let test_full_mode_catches_wrong_witness () =
  (* A self-consistent forgery: SAT claim with a wrong witness and the
     fingerprint recomputed over the forged fields. The fingerprint
     check passes by construction — only witness replay (Full) can
     catch it. [<down[a & b]>] is UNSAT, so no witness satisfies it. *)
  let formula = "<down[a & b]>" in
  let path, facts = solved_store ~name:"full" [ formula ] in
  let key, canon, verdict = List.hd facts in
  Alcotest.(check string) "fixture is unsat" "unsat" verdict;
  let r = first_record path in
  let forged =
    let r' =
      { r with
        Record.verdict =
          Record.Sat
            (Data_tree.node "a" 0 [ Data_tree.node "a" 0 [] ])
      }
    in
    { r' with Record.fingerprint = Record.fingerprint r' }
  in
  append_record path forged;
  (* Fingerprint mode: the forgery is internally consistent and gets
     served — the documented limit of the cheap mode. *)
  let store, _ = open_rw ~verify:Store.Fingerprint path in
  (match Store.probe store ~key ~canon with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail "self-consistent forgery should pass Fingerprint");
  Store.close store;
  (* Full mode: the witness is replayed through the reference semantics
     and fails, so the record self-evicts. *)
  let path2 = tmp_path "full2.xpds" in
  write_file path2 (read_file path);
  let store, _ = open_rw ~verify:Store.Full path2 in
  (match Store.probe store ~key ~canon with
  | Store.Evicted _ -> ()
  | Store.Hit _ -> Alcotest.fail "Full mode served a wrong witness"
  | Store.Miss -> Alcotest.fail "expected an eviction");
  Store.close store

let test_full_mode_marks_replayed_witness () =
  let formula = "<down[a & down[b] != down[b]]>" in
  let path, facts = solved_store ~name:"replay" [ formula ] in
  let key, canon, verdict = List.hd facts in
  Alcotest.(check string) "fixture is sat" "sat" verdict;
  let store, _ = open_rw ~verify:Store.Full path in
  (match Store.probe store ~key ~canon with
  | Store.Hit (report, _) ->
    Alcotest.(check (option bool))
      "witness replayed and marked" (Some true)
      report.Sat.witness_verified
  | _ -> Alcotest.fail "expected a verified hit");
  Store.close store

(* --- the byte-flip mutation suite ---

   Flip every byte of a real store file (one mutant per offset) and
   probe all keys of each mutant: the only acceptable outcomes are a
   verified hit that agrees with the solver's verdict, an eviction, or
   a miss. The same holds for a copy with a torn tail, whose prefix must
   still open. The mutant count is asserted so the suite keeps its
   advertised coverage as fixtures evolve. *)

let test_byte_flip_mutants () =
  let path, facts = solved_store ~name:"mut" fixtures in
  let clean = read_file path in
  let n = String.length clean in
  let served_wrong = ref 0 and mutants = ref 0 in
  let probe_all store =
    List.iter
      (fun (key, canon, verdict) ->
        match Store.probe store ~key ~canon with
        | Store.Miss | Store.Evicted _ -> ()
        | Store.Hit (report, _) ->
          if Service.verdict_name report.Sat.verdict <> verdict then
            incr served_wrong)
      facts;
    Store.close store
  in
  for off = 0 to n - 1 do
    incr mutants;
    let b = Bytes.of_string clean in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
    let mpath = tmp_path "mutant.xpds" in
    write_file mpath (Bytes.to_string b);
    (match Store.open_ro mpath with
    | Error _ -> () (* whole file rejected *)
    | Ok (store, _) -> probe_all store);
    Sys.remove mpath
  done;
  (* A crash mid-append: the torn tail is dropped, the prefix served. *)
  let tpath = tmp_path "torn.xpds" in
  write_file tpath (String.sub clean 0 (n - 5));
  (match Store.open_ro tpath with
  | Error e -> Alcotest.failf "torn store rejected: %s" e
  | Ok (store, info) ->
    Alcotest.(check bool) "torn tail recovered" true
      (info.Store.recovered_bytes > 0);
    probe_all store);
  Alcotest.(check int) "no mutant ever serves a wrong verdict" 0
    !served_wrong;
  Alcotest.(check bool)
    (Printf.sprintf "mutation count >= 500 (got %d)" !mutants)
    true (!mutants >= 500)

(* --- snapshots --- *)

let test_export_compacts () =
  let path, facts = solved_store ~name:"exp" fixtures in
  (* tombstone one key via a doctored record + probe *)
  let key0, canon0, _ = List.hd facts in
  let r = first_record path in
  append_record path { r with Record.verdict = Record.Unknown "forged" };
  let store, _ = open_rw path in
  (match Store.probe store ~key:key0 ~canon:canon0 with
  | Store.Evicted _ -> ()
  | _ -> Alcotest.fail "expected eviction");
  Store.close store;
  let snap = tmp_path "exp.snap" in
  (match Store.export ~src:path ~dst:snap with
  | Error e -> Alcotest.failf "export: %s" e
  | Ok info ->
    Alcotest.(check int)
      "live records exported"
      (List.length fixtures - 1)
      info.Store.exported);
  match Store.file_stats snap with
  | Error e -> Alcotest.failf "stats: %s" e
  | Ok s ->
    Alcotest.(check int)
      "snapshot is compact: one frame per live record"
      s.Store.fs_live s.Store.fs_record_frames;
    Alcotest.(check int) "no tombstones" 0 s.Store.fs_tombstones;
    Alcotest.(check int) "no session frames" 0 s.Store.fs_sessions

let test_import_refuses_mismatched_header () =
  let path, _ = solved_store ~name:"imp_src" [ "<down[a]>" ] in
  let snap = tmp_path "imp.snap" in
  (match Store.export ~src:path ~dst:snap with
  | Error e -> Alcotest.failf "export: %s" e
  | Ok _ -> ());
  (* a store under a different config must refuse the snapshot *)
  let other = tmp_path "other.xpds" in
  let store =
    match
      Store.open_rw ~path:other
        ~protocol_version:Service.protocol_version
        ~config_fingerprint:"other-config" ()
    with
    | Ok (s, _) -> s
    | Error e -> Alcotest.failf "open: %s" e
  in
  Store.close store;
  (match Store.import_into ~snapshot:snap ~store_path:other with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "mismatched import accepted %d records" n);
  (* and the refusal left the store untouched *)
  match Store.file_stats other with
  | Error e -> Alcotest.failf "stats: %s" e
  | Ok s ->
    Alcotest.(check string)
      "store header intact" "other-config" s.Store.fs_config

let test_import_skips_existing () =
  let path, facts = solved_store ~name:"imp2" fixtures in
  let snap = tmp_path "imp2.snap" in
  (match Store.export ~src:path ~dst:snap with
  | Error e -> Alcotest.failf "export: %s" e
  | Ok info -> Alcotest.(check int) "nothing skipped" 0 info.Store.skipped);
  (* importing into the source store is a no-op: every key exists *)
  (match Store.import_into ~snapshot:snap ~store_path:path with
  | Error e -> Alcotest.failf "import: %s" e
  | Ok n -> Alcotest.(check int) "all keys skipped" 0 n);
  (* importing into a fresh store carries everything *)
  let fresh = tmp_path "imp2_fresh.xpds" in
  (match Store.import_into ~snapshot:snap ~store_path:fresh with
  | Error e -> Alcotest.failf "import: %s" e
  | Ok n ->
    Alcotest.(check int) "all records imported" (List.length facts) n);
  let store, info = open_rw fresh in
  Alcotest.(check int) "index loaded" (List.length facts)
    info.Store.records;
  List.iter
    (fun (key, canon, verdict) ->
      match Store.probe store ~key ~canon with
      | Store.Hit (report, _) ->
        Alcotest.(check string)
          "verdict preserved" verdict
          (Service.verdict_name report.Sat.verdict)
      | _ -> Alcotest.failf "imported key %s missing" key)
    facts;
  Store.close store

(* --- the service's disk tier --- *)

let test_service_disk_tier () =
  let path = tmp_path "tier.xpds" in
  let req id f =
    { Request.id; timeout_ms = None; body = Sat (parse f) }
  in
  (* session 1: cold solve, admitted to the store *)
  let store, _ = open_rw path in
  let svc = Service.create ~store Service.Config.default in
  let cold = Corpus.solve svc (req "cold" "<down[a]>") in
  Alcotest.(check string) "cold is solve tier" "solve" cold.Service.tier;
  Store.close store;
  (* session 2: fresh process shape — empty LRU, warm store *)
  let store, info = open_rw path in
  Alcotest.(check int) "record persisted" 1 info.Store.records;
  let svc = Service.create ~store Service.Config.default in
  let warm = Corpus.solve svc (req "warm" "<down[a]>") in
  Alcotest.(check string) "warm is disk tier" "disk" warm.Service.tier;
  Alcotest.(check bool) "disk hit is cached=true" true warm.Service.cached;
  Alcotest.(check string)
    "verdict agrees"
    (Service.verdict_name cold.Service.report.Sat.verdict)
    (Service.verdict_name warm.Service.report.Sat.verdict);
  (* the disk hit promoted the record to the LRU *)
  let again = Corpus.solve svc (req "again" "<down[a]>") in
  Alcotest.(check string) "then memory tier" "memory" again.Service.tier;
  let m = Service.metrics svc in
  Alcotest.(check (float 0.)) "disk_hits metric" 1.
    (Corpus.metric m [ "store"; "disk_hits" ]);
  Alcotest.(check (float 0.)) "both probes were cache hits" 2.
    (Corpus.metric m [ "cache_hits" ]);
  (* the response JSON carries the tier *)
  (match Json.parse (Service.answer_to_json (Sat_answer warm)) with
  | Ok j -> (
    match Json.member "tier" j with
    | Some (Json.Str "disk") -> ()
    | _ -> Alcotest.fail "tier missing from response JSON")
  | Error e -> Alcotest.failf "response JSON: %s" e);
  Store.close store

let test_service_store_stats_json () =
  let path = tmp_path "mjson.xpds" in
  let store, _ = open_rw path in
  let svc = Service.create ~store Service.Config.default in
  ignore
    (Corpus.solve svc
       { Request.id = "x"; timeout_ms = None; body = Sat (parse "<down[a]>") });
  let j = Service.metrics svc in
  (match Json.member "tiers" j with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool)
      "tiers has all three" true
      (List.mem_assoc "memory" fields
      && List.mem_assoc "disk" fields
      && List.mem_assoc "solve" fields)
  | _ -> Alcotest.fail "no tiers section");
  (match Json.member "store" j with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool)
      "store section present" true
      (List.mem_assoc "appends" fields)
  | _ -> Alcotest.fail "no store section");
  Store.close store

(* --- Lru.remove / Lru.fold --- *)

let test_lru_remove () =
  let l = Lru.create ~capacity:4 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  Alcotest.(check bool) "remove hit" true (Lru.remove l "b");
  Alcotest.(check bool) "remove miss" false (Lru.remove l "b");
  Alcotest.(check int) "length" 2 (Lru.length l);
  Alcotest.(check (option int)) "b gone" None (Lru.find l "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find l "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find l "c");
  (* removing from a singleton empties cleanly and re-adding works *)
  let s = Lru.create ~capacity:2 in
  Lru.add s "only" 7;
  Alcotest.(check bool) "singleton removed" true (Lru.remove s "only");
  Alcotest.(check int) "empty" 0 (Lru.length s);
  Lru.add s "next" 8;
  Alcotest.(check (option int)) "usable after" (Some 8) (Lru.find s "next")

let test_lru_fold () =
  let l = Lru.create ~capacity:4 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  (* touch "a": MRU order becomes a, c, b *)
  ignore (Lru.find l "a");
  let order = List.rev (Lru.fold (fun acc k _ -> k :: acc) [] l) in
  Alcotest.(check (list string)) "MRU to LRU" [ "a"; "c"; "b" ] order;
  let sum = Lru.fold (fun acc _ v -> acc + v) 0 l in
  Alcotest.(check int) "fold over values" 6 sum;
  (* fold does not promote: eviction order is unchanged *)
  Lru.add l "d" 4;
  Lru.add l "e" 5;
  Alcotest.(check (option int)) "LRU evicted" None (Lru.find l "b")

let suite =
  ( "store",
    [ Alcotest.test_case "crc32 known answer" `Quick test_crc_known_answer;
      Alcotest.test_case "crc32 chaining" `Quick test_crc_chaining;
      Alcotest.test_case "crc32 sliced kernel = bitwise" `Quick test_crc_kernel;
      QCheck_alcotest.to_alcotest record_roundtrip;
      Alcotest.test_case "log truncated tail" `Quick test_log_truncated_tail;
      Alcotest.test_case "log bad magic" `Quick test_log_bad_magic;
      Alcotest.test_case "log oversized length" `Quick
        test_log_oversized_length;
      Alcotest.test_case "config mismatch invalidates" `Quick
        test_version_mismatch_invalidates;
      Alcotest.test_case "protocol mismatch invalidates" `Quick
        test_protocol_mismatch_invalidates;
      Alcotest.test_case "doctored verdict evicted" `Quick
        test_doctored_verdict_evicted;
      Alcotest.test_case "transplanted record evicted" `Quick
        test_transplanted_record_evicted;
      Alcotest.test_case "full mode catches wrong witness" `Quick
        test_full_mode_catches_wrong_witness;
      Alcotest.test_case "full mode marks replayed witness" `Quick
        test_full_mode_marks_replayed_witness;
      Alcotest.test_case "byte-flip mutants never served" `Slow
        test_byte_flip_mutants;
      Alcotest.test_case "export compacts" `Quick test_export_compacts;
      Alcotest.test_case "import refuses mismatched header" `Quick
        test_import_refuses_mismatched_header;
      Alcotest.test_case "import skips existing" `Quick
        test_import_skips_existing;
      Alcotest.test_case "service disk tier" `Quick test_service_disk_tier;
      Alcotest.test_case "tier metrics JSON" `Quick
        test_service_store_stats_json;
      Alcotest.test_case "lru remove" `Quick test_lru_remove;
      Alcotest.test_case "lru fold" `Quick test_lru_fold
    ] )
