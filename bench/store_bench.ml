(* Persistent-store benchmark and warm-start smoke.

   Full mode: cold-solve the shared corpus into a store, export a
   compacted snapshot, then warm-start a fresh service from the
   snapshot and gate the re-run at >= 100x the cold wall-time with
   every request answered below the solve tier and bit-identical
   verdicts. A corruption sweep (byte flips across the snapshot, a
   truncated tail, and a forged valid-CRC record with a doctored
   verdict) then asserts the other half of the contract: corruption is
   detected and evicted — a damaged snapshot never serves a wrong
   verdict. Emits BENCH_store.json (or [out]).

   [run ~quick:true] is the CI smoke: a small family set through the
   same pipeline with a >= 10x warm-start gate, plus truncation
   recovery, header version/config mismatch invalidation, the forged
   record self-eviction, and an export/import round trip. Returns 0 on
   success, 1 on any violated expectation.

   Run with: xpds bench store [--quick]
         or: dune exec bench/main.exe -- store *)

module Service = Xpds.Service
module Store = Xpds.Store
module Record = Xpds.Store_record
module Log = Xpds.Store_log
module Json = Xpds.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verdict_of (r : Service.response) =
  Service.verdict_name r.Service.report.Xpds.Sat.verdict

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let tmp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xpds_store_bench_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let default_fp = Service.Config.(fingerprint default_solver)

let open_store ?verify path =
  match
    Store.open_rw ?verify ~path ~protocol_version:Service.protocol_version
      ~config_fingerprint:default_fp ()
  with
  | Ok pair -> pair
  | Error e -> failwith ("store open: " ^ e)

(* (hex key, canonical formula, cold verdict) per request — lets the
   corruption sweep probe the store directly, without re-solving. *)
let keyed_verdicts reqs responses =
  List.map2
    (fun (r : Xpds.Request.t) resp ->
      let k = Xpds.Request.key ~config_fingerprint:default_fp r.body in
      (Xpds.Cache_key.hex k.digest, k.canon, verdict_of resp))
    reqs responses

(* Probe every key of a possibly damaged store: a hit must agree with
   the cold verdict; evictions and misses are the accepted outcomes for
   damaged records. Returns (hits, evicted, missed, wrong). *)
let probe_all store keyed =
  List.fold_left
    (fun (h, e, m, w) (key, canon, verdict) ->
      match Store.probe store ~key ~canon with
      | Store.Hit (report, _) ->
        if Service.verdict_name report.Xpds.Sat.verdict = verdict then
          (h + 1, e, m, w)
        else (h + 1, e, m, w + 1)
      | Store.Evicted _ -> (h, e + 1, m, w)
      | Store.Miss -> (h, e, m + 1, w))
    (0, 0, 0, 0) keyed

(* Append a forged frame to [path]: a copy of some live record with its
   verdict flipped but the stale fingerprint kept. The frame's CRC is
   valid — only verify-on-load can catch it. Returns the forged key. *)
let forge_record path =
  let scan =
    match Log.scan path with Ok s -> s | Error e -> failwith e
  in
  let record_of payload =
    match Json.parse payload with
    | Ok j when Json.member "t" j = Some (Json.Str "r") -> (
      match Json.member "rec" j with
      | Some rj -> (
        match Record.of_json rj with Ok r -> Some r | Error _ -> None)
      | None -> None)
    | _ -> None
  in
  let rec first = function
    | [] -> failwith "forge: no record frame"
    | p :: rest -> (
      match record_of p with Some r -> r | None -> first rest)
  in
  let r = first scan.Log.frames in
  let flipped =
    match r.Record.verdict with
    | Record.Unsat | Record.Unsat_bounded _ | Record.Unknown _ ->
      Record.Sat (Xpds.Data_tree.leaf (Xpds.Label.of_string "a") 0)
    | Record.Sat _ -> Record.Unsat
  in
  let forged = { r with Record.verdict = flipped } in
  let w = Log.open_append ~path ~valid_end:scan.Log.valid_end in
  Log.append w
    (Json.to_string
       (Json.Obj [ ("t", Json.Str "r"); ("rec", Record.to_json forged) ]));
  Log.close w;
  r.Record.key

(* --- the shared pipeline: cold solve -> snapshot -> warm start --- *)

type pipeline = {
  n : int;
  unique : int;
  cold_s : float;
  warm_s : float;
  speedup : float;
  agree : bool;
  no_solves : bool;
  disk_hits : int;
  memory_hits : int;
  keyed : (string * Xpds.Ast.node * string) list;
  snapshot : string;
  export_skipped : int;
  snapshot_bytes : int;
}

let pipeline ~dir ~name reqs =
  let store_path = Filename.concat dir (name ^ ".xpds") in
  (try Sys.remove store_path with Sys_error _ -> ());
  let store, _ = open_store store_path in
  let svc = Service.create ~store Service.Config.default in
  let cold, cold_s =
    time (fun () -> Service.solve_batch svc reqs)
  in
  Store.close store;

  let snapshot = Filename.concat dir (name ^ ".snap") in
  let export =
    match Store.export ~src:store_path ~dst:snapshot with
    | Ok i -> i
    | Error e -> failwith ("export: " ^ e)
  in

  (* Fresh service, fresh store index, nothing in the LRU: the only
     warm state is the snapshot's bytes — the fresh-process shape. *)
  let warm_path = Filename.concat dir (name ^ "_warm.xpds") in
  write_file warm_path (read_file snapshot);
  let warm_store, info = open_store warm_path in
  let warm_svc = Service.create ~store:warm_store Service.Config.default in
  let warm, warm_s =
    time (fun () -> Service.solve_batch warm_svc reqs)
  in
  let m = Service.metrics warm_svc in
  let agree =
    List.for_all2 (fun a b -> verdict_of a = verdict_of b) cold warm
  in
  let no_solves = m.Xpds.Service_metrics.cache_misses = 0 in
  Store.close warm_store;
  { n = List.length reqs;
    unique = info.Store.records;
    cold_s;
    warm_s;
    speedup = cold_s /. warm_s;
    agree;
    no_solves;
    disk_hits = m.Xpds.Service_metrics.disk_hits;
    memory_hits =
      m.Xpds.Service_metrics.cache_hits
      - m.Xpds.Service_metrics.disk_hits;
    keyed = keyed_verdicts reqs cold;
    snapshot;
    export_skipped = export.Store.skipped;
    snapshot_bytes = export.Store.snapshot_bytes
  }

let pipeline_json p =
  [ ("formulas", Json.Num (float_of_int p.n));
    ("unique_records", Json.Num (float_of_int p.unique));
    ("cold_s", Json.Num p.cold_s);
    ("warm_s", Json.Num p.warm_s);
    ("speedup", Json.Num p.speedup);
    ("verdicts_agree", Json.Bool p.agree);
    ("no_solves_when_warm", Json.Bool p.no_solves);
    ("disk_hits", Json.Num (float_of_int p.disk_hits));
    ("memory_hits", Json.Num (float_of_int p.memory_hits));
    ("export_skipped", Json.Num (float_of_int p.export_skipped));
    ("snapshot_bytes", Json.Num (float_of_int p.snapshot_bytes))
  ]

(* --- corruption: flips, truncation, forgery --- *)

(* Flip one byte at [off] in a copy of [snapshot]; open the copy and
   probe every key. Acceptable outcomes per key: a hit that agrees with
   the cold verdict, an eviction, or a miss. Never a wrong verdict. *)
let flip_case ~dir ~keyed ~snapshot i off =
  let bytes = read_file snapshot in
  let mutant = Filename.concat dir (Printf.sprintf "mut_%d.xpds" i) in
  let b = Bytes.of_string bytes in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
  write_file mutant (Bytes.to_string b);
  match Store.open_ro mutant with
  | Error _ ->
    (* whole file rejected: header/magic damage *)
    (off, "rejected", 0, 0)
  | Ok (store, _) ->
    let hits, evicted, missed, wrong = probe_all store keyed in
    Store.close store;
    ignore missed;
    ( off,
      (if wrong > 0 then "SERVED_WRONG" else "degraded"),
      hits,
      evicted )

let corruption_sweep ~dir ~keyed ~snapshot =
  let len = String.length (read_file snapshot) in
  let offsets =
    List.sort_uniq compare
      (List.filter
         (fun o -> o >= 0 && o < len)
         [ 2;                    (* magic *)
           14;                   (* header frame length prefix *)
           20;                   (* header payload *)
           len / 4; len / 2; (2 * len) / 3;  (* record frames *)
           len - 3;              (* final CRC *)
           len - 1 ])
  in
  let cases =
    List.mapi (fun i off -> flip_case ~dir ~keyed ~snapshot i off) offsets
  in
  (* Truncation: a crash mid-append drops the tail, keeps the prefix. *)
  let bytes = read_file snapshot in
  let trunc = Filename.concat dir "trunc.xpds" in
  write_file trunc (String.sub bytes 0 (String.length bytes - 5));
  let trunc_ok =
    match Store.open_ro trunc with
    | Error _ -> false
    | Ok (store, info) ->
      let _, _, _, wrong = probe_all store keyed in
      Store.close store;
      info.Store.recovered_bytes > 0 && wrong = 0
  in
  (* Forgery: valid CRC, doctored verdict, stale fingerprint — only
     verify-on-load stands between it and the caller. *)
  let forged_path = Filename.concat dir "forged.xpds" in
  write_file forged_path bytes;
  let forged_key = forge_record forged_path in
  let forged_ok =
    let store, _ = open_store forged_path in
    let _, _, _, wrong = probe_all store keyed in
    let evicted =
      (* the forged record superseded the real one in the index and
         must have been tombstoned by its own probe *)
      (Store.counters store).Store.self_evictions >= 1
      && List.exists
           (fun (k, canon, _) ->
             k = forged_key
             &&
             match Store.probe store ~key:k ~canon with
             | Store.Hit _ -> false
             | Store.Miss | Store.Evicted _ -> true)
           keyed
    in
    Store.close store;
    wrong = 0 && evicted
  in
  (cases, trunc_ok, forged_ok)

let sweep_json (cases, trunc_ok, forged_ok) =
  [ ( "byte_flips",
      Json.Arr
        (List.map
           (fun (off, outcome, hits, evicted) ->
             Json.Obj
               [ ("offset", Json.Num (float_of_int off));
                 ("outcome", Json.Str outcome);
                 ("verified_hits", Json.Num (float_of_int hits));
                 ("self_evictions", Json.Num (float_of_int evicted))
               ])
           cases) );
    ( "wrong_verdicts_served",
      Json.Num
        (float_of_int
           (List.length
              (List.filter
                 (fun (_, outcome, _, _) -> outcome = "SERVED_WRONG")
                 cases))) );
    ("truncated_tail_recovered", Json.Bool trunc_ok);
    ("forged_record_evicted", Json.Bool forged_ok)
  ]

let sweep_ok (cases, trunc_ok, forged_ok) =
  trunc_ok && forged_ok
  && List.for_all (fun (_, outcome, _, _) -> outcome <> "SERVED_WRONG") cases

(* --- full mode --- *)

let full ~out () =
  let dir = tmp_dir () in
  let reqs = Corpus.requests (Corpus.formulas ()) in
  Format.printf "store bench: %d formulas@." (List.length reqs);
  let p = pipeline ~dir ~name:"full" reqs in
  Format.printf
    "  cold %.2f s -> warm %.3f s (%.0fx), %d disk hits, %d memory@."
    p.cold_s p.warm_s p.speedup p.disk_hits p.memory_hits;
  let sweep = corruption_sweep ~dir ~keyed:p.keyed ~snapshot:p.snapshot in
  let _, trunc_ok, forged_ok = sweep in
  Format.printf "  corruption sweep: truncation %s, forgery %s@."
    (if trunc_ok then "recovered" else "FAIL")
    (if forged_ok then "evicted" else "FAIL");
  let gate = p.speedup >= 100. in
  Format.printf "  warm-start gate (>=100x): %s@."
    (if gate then "ok" else "FAIL");
  let ok =
    Report.write ~out ~bench:"store" ~mode:"full"
      ~gates:
        [ ("speedup_100x", gate);
          ("warm_verdicts_agree", p.agree);
          ("warm_no_solves", p.no_solves);
          ("corruption_sweep", sweep_ok sweep)
        ]
      (pipeline_json p
      @ [ ("speedup_gate", Json.Num 100.);
          ("corruption", Json.Obj (sweep_json sweep))
        ])
  in
  if ok then 0 else 1

(* --- CI smoke mode --- *)

let smoke ~out () =
  let dir = tmp_dir () in
  let checks = ref [] in
  let check name ok =
    Format.printf "  %-38s %s@." name (if ok then "ok" else "FAIL");
    checks := (name, ok) :: !checks
  in
  let formulas =
    [ Families.child_chain ~sat:true 2;
      Families.child_chain ~sat:true 3;
      Families.child_chain ~sat:false 2;
      Families.data_chain ~sat:true 2;
      Families.data_chain ~sat:false 2;
      Families.desc_data ~sat:true 1;
      Families.root_data 1;
      Families.mixed_axes ~sat:true 2;
      Families.mixed_axes ~sat:false 2;
      (* duplicate: the warm run must serve it from the memory tier *)
      Families.child_chain ~sat:true 2
    ]
  in
  let reqs = Corpus.requests formulas in
  let p = pipeline ~dir ~name:"smoke" reqs in
  Format.printf "  cold %.3f s -> warm %.3f s (%.0fx)@." p.cold_s p.warm_s
    p.speedup;
  check "warm_verdicts_agree" p.agree;
  check "warm_no_solves" p.no_solves;
  check "warm_disk_tier_hit" (p.disk_hits > 0);
  check "warm_duplicate_on_memory_tier" (p.memory_hits > 0);
  check "warm_speedup_10x" (p.speedup >= 10.);
  check "export_nothing_skipped" (p.export_skipped = 0);

  let sweep = corruption_sweep ~dir ~keyed:p.keyed ~snapshot:p.snapshot in
  let cases, trunc_ok, forged_ok = sweep in
  check "flips_never_serve_wrong_verdict"
    (List.for_all (fun (_, o, _, _) -> o <> "SERVED_WRONG") cases);
  check "truncated_tail_recovered" trunc_ok;
  check "forged_record_self_evicted" forged_ok;

  (* Version/config mismatch: a store written under another solver
     configuration is invalidated wholesale, not read. *)
  let other = Filename.concat dir "other.xpds" in
  write_file other (read_file p.snapshot);
  let mismatch_ok =
    match
      Store.open_rw ~path:other
        ~protocol_version:Service.protocol_version
        ~config_fingerprint:"some-other-solver-config" ()
    with
    | Error _ -> false
    | Ok (store, info) ->
      let ok = info.Store.invalidated && info.Store.records = 0 in
      Store.close store;
      ok
  in
  check "config_mismatch_invalidates" mismatch_ok;

  (* Export/import round trip into an empty store. *)
  let imported = Filename.concat dir "imported.xpds" in
  (try Sys.remove imported with Sys_error _ -> ());
  let import_ok =
    match Store.import_into ~snapshot:p.snapshot ~store_path:imported with
    | Error _ -> false
    | Ok n -> (
      n = p.unique
      &&
      match Store.open_ro imported with
      | Error _ -> false
      | Ok (store, _) ->
        let hits, _, _, wrong = probe_all store p.keyed in
        Store.close store;
        wrong = 0 && hits >= p.unique)
  in
  check "export_import_round_trip" import_ok;

  let results = List.rev !checks in
  let failed = List.filter (fun (_, ok) -> not ok) results in
  Format.printf "  %d/%d ok@."
    (List.length results - List.length failed)
    (List.length results);
  let ok =
    Report.write ~out ~bench:"store" ~mode:"quick"
      ~gates:[ ("smoke_checks", failed = []) ]
      (pipeline_json p
      @ [ ("corruption", Json.Obj (sweep_json sweep));
          ("checks", Json.Num (float_of_int (List.length results)));
          ("failed", Json.Num (float_of_int (List.length failed)));
          ( "results",
            Json.Obj
              (List.map (fun (name, ok) -> (name, Json.Bool ok)) results) )
        ])
  in
  if ok then 0 else 1

let run ?(quick = false) ?(out = "BENCH_store.json") () =
  Format.printf "store bench%s:@." (if quick then " (quick)" else "");
  if quick then smoke ~out () else full ~out ()
