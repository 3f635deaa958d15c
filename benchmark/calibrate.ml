(* [main.exe calibrate]: re-derives the constants the workloads freeze —
   the template exclusion lists of Inputs — and prints them as OCaml.
   Run it only when the benchmark itself changes: a benchmark whose
   constants move between two commits no longer compares them. *)

open Inputs

let time_line svc line =
  let t0 = Xpds.Trace.now_ms () in
  let resp = Xpds.Service.handle_line svc line in
  (Xpds.Trace.now_ms () -. t0, resp)

(* Pool entries whose solve took over [limit_ms] through a fresh
   service, as drawn or once relabeled; each the faster of two tries, so
   that a stall of the box does not exclude a request. *)
let slow ~config ~timeout_ms ~limit_ms ~relabel pool =
  let st = Random.State.make [| 0xca1 |] in
  List.filter
    (fun i ->
      let body = (Lazy.force pool).(i) in
      List.exists
        (fun b ->
          let line = Printf.sprintf {|{"id":"c",%s}|} (Workload.fields ~timeout_ms b) in
          let try_once () = fst (time_line (Xpds.Service.create config) line) in
          Float.min (try_once ()) (try_once ()) > limit_ms)
        [ body; relabel st body ])
    (List.init (Array.length (Lazy.force pool)) Fun.id)

(* Hard formulas whose canonical form carries no label share a cache key
   with every other such formula, whatever the relabeling: keep the
   first of each, so that every hard-solve request has a key of its
   own. *)
let collisions pool =
  let svc = Xpds.Service.create Workload.hard_config in
  let st = Random.State.make [| 0xca2 |] in
  List.filter
    (fun i ->
      let line =
        Printf.sprintf {|{"id":"c",%s}|}
          (Workload.fields (rename_fresh st (Lazy.force pool).(i)))
      in
      match Xpds.Json.parse (snd (time_line svc line)) with
      | Ok v -> Xpds.Json.member "tier" v = Some (Xpds.Json.Str "memory")
      | Error _ -> false)
    (List.init (Array.length (Lazy.force pool)) Fun.id)

let print name l total =
  Printf.printf "let %s =\n  [ %s ]\n(* %d of %d excluded *)\n%!" name
    (String.concat "; " (List.map string_of_int l))
    (List.length l) total

let run () =
  let probes = List.init 20 (fun _ -> Drive.speed_probe ()) in
  Printf.printf "(* speed probe: fastest %.2f ms, median %.2f ms of 20 *)\n%!"
    (List.fold_left min infinity probes) (Stats.median probes);
  let hard = Lazy.force hard_generated in
  print "hard_excluded"
    (List.sort_uniq compare
       (slow ~config:Workload.hard_config ~timeout_ms:10000 ~limit_ms:200.
          ~relabel:rename_fresh hard_generated
       @ collisions hard_generated))
    (Array.length hard);
  print "light_excluded"
    (slow ~config:Xpds.Service.Config.default ~timeout_ms:100 ~limit_ms:0.2
       ~relabel:(fun st -> rename_into st letters)
       light_pool)
    light_pool_size;
