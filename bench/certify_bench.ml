(* Certificate benchmark: solve each case in certificate mode, emit a
   certificate, round-trip it through its JSON encoding, and check it
   with the independent verifier (lib/cert/naive.ml) — measuring the
   emission + check overhead next to the solve time.

   [run ~quick:true] is the CI smoke mode: every verdict must yield a
   certificate the independent checker accepts (exit 1 otherwise) — the
   end-to-end guarantee that the optimized engine and the naive
   verifier agree on the whole quick corpus.

   Run with: xpds bench certify [--quick]
         or: dune exec bench/main.exe -- certify *)

module Service = Xpds.Service
module Sat = Xpds.Sat
module Cert = Xpds.Cert
module Json = Xpds.Json

(* Like the emptiness smoke corpus, but tuned for certification: in
   certificate mode the fixpoint runs to genuine saturation (no height
   cap) and the naive checker then re-walks every child combination
   over the basis, so UNSAT cases must keep their bases small —
   checking is Ω(n^width) in the basis size n. child_chain_unsat_1
   (60-state basis, ~15 s to check) and data_chain_unsat_2 (48 states,
   ~3 s) are the feasible UNSAT representatives; one size up
   (child_chain_unsat_2, 114 states) already exhausts a 2M-transition
   checker budget. Full mode adds larger SAT instances — SAT
   certificates replay a witness, so they scale easily. *)
let cases ~quick () =
  [ ("child_chain_sat_3", Families.child_chain ~sat:true 3, `Sat);
    ("child_chain_unsat_1", Families.child_chain ~sat:false 1, `Unsat);
    ("data_chain_sat_2", Families.data_chain ~sat:true 2, `Sat);
    ("data_chain_sat_3", Families.data_chain ~sat:true 3, `Sat);
    ("data_chain_unsat_2", Families.data_chain ~sat:false 2, `Unsat);
    ("desc_data_sat_1", Families.desc_data ~sat:true 1, `Sat);
    ("root_data_2", Families.root_data 2, `Sat);
    ("reg_alt_sat", Families.reg_alternation ~sat:true (), `Sat);
    ("mixed_axes_sat_2", Families.mixed_axes ~sat:true 2, `Sat)
  ]
  @
  if quick then []
  else
    [ ("child_chain_sat_6", Families.child_chain ~sat:true 6, `Sat);
      ("data_chain_sat_4", Families.data_chain ~sat:true 4, `Sat);
      ("desc_data_sat_2", Families.desc_data ~sat:true 2, `Sat);
      ("mixed_axes_sat_3", Families.mixed_axes ~sat:true 3, `Sat)
    ]

let run ?(quick = false) ?(out = "BENCH_certify.json") () =
  let cases = cases ~quick () in
  Format.printf "certify bench%s: %d cases@."
    (if quick then " (quick)" else "")
    (List.length cases);
  let config =
    (* No height cap in certificate mode, so the fixpoint must run to
       genuine saturation. Saturating costs O(n^width) child
       combinations over the n basis states; width 2 keeps both the
       engine and the naive checker tractable on this corpus (every
       family here has branching <= 2). *)
    Service.Config.(
      default |> with_certificate true |> with_width 2
      |> with_max_transitions 2_000_000)
  in
  let svc = Service.create config in
  let t_start = Unix.gettimeofday () in
  let results =
    List.map
      (fun (name, phi, expect) ->
        let resp =
          Corpus.solve svc (Corpus.sat_request name phi)
        in
        let verdict = Service.verdict_name resp.Service.report.Sat.verdict in
        let verdict_ok =
          match (expect, verdict) with
          | `Sat, "sat" -> true
          | `Unsat, ("unsat" | "unsat_bounded") -> true
          | _ -> false
        in
        let t0 = Unix.gettimeofday () in
        let cert_status, cert_bytes, check_ms =
          match Cert.of_report resp.Service.report with
          | Error e -> (Error ("emission: " ^ e), 0, 0.)
          | Ok cert -> (
            (* The JSON round trip is part of the measured pipeline: CI
               checks certificates from files, never in-memory values. *)
            let encoded = Cert.to_string cert in
            match Cert.of_string encoded with
            | Error e -> (Error ("roundtrip: " ^ e), String.length encoded, 0.)
            | Ok cert' ->
              let t1 = Unix.gettimeofday () in
              let r =
                match Cert.check cert' with
                | Ok v -> Ok v
                | Error e -> Error ("check: " ^ e)
              in
              let check_ms = (Unix.gettimeofday () -. t1) *. 1000. in
              Service.record_cert svc ~ok:(Result.is_ok r) ~ms:check_ms;
              (r, String.length encoded, check_ms))
        in
        let total_ms = (Unix.gettimeofday () -. t0) *. 1000. in
        let ok = verdict_ok && Result.is_ok cert_status in
        Format.printf "  %-22s %-14s %8.1f ms solve %8.1f ms check  %s@."
          name verdict resp.Service.ms check_ms
          (match cert_status with
          | Ok v -> Format.asprintf "%a%s" Cert.pp_verdict v
              (if verdict_ok then "" else " (VERDICT MISMATCH)")
          | Error e -> "FAIL: " ^ e);
        (name, verdict, ok, cert_status, resp.Service.ms, check_ms,
         total_ms, cert_bytes))
      cases
  in
  let wall = Unix.gettimeofday () -. t_start in
  let failed =
    List.filter (fun (_, _, ok, _, _, _, _, _) -> not ok) results
  in
  Format.printf "  %d/%d ok in %.2f s@."
    (List.length results - List.length failed)
    (List.length results) wall;
  Format.printf "  service metrics: %a@." Xpds.Service_metrics.pp
    (Service.metrics svc);
  let ok =
    Report.write ~out ~bench:"certify"
      ~mode:(if quick then "quick" else "full")
      ~config ~wall_s:wall
      ~gates:[ ("certificates_check", failed = []) ]
      [ ("cases", Json.Num (float_of_int (List.length results)));
        ("failed", Json.Num (float_of_int (List.length failed)));
        ( "results",
          Json.Obj
            (List.map
               (fun (name, verdict, ok, status, solve_ms, check_ms, _, bytes)
                    ->
                 ( name,
                   Json.Obj
                     [ ("verdict", Json.Str verdict);
                       ("ok", Json.Bool ok);
                       ( "certificate",
                         Json.Str
                           (match status with
                           | Ok v -> Format.asprintf "%a" Cert.pp_verdict v
                           | Error e -> e) );
                       ("solve_ms", Json.Num solve_ms);
                       ("check_ms", Json.Num check_ms);
                       ("cert_bytes", Json.Num (float_of_int bytes))
                     ] ))
               results) );
        ( "metrics",
          Xpds.Service_metrics.to_json (Service.metrics svc) )
      ]
  in
  if ok then 0 else 1
