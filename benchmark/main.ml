(* The benchmark of the xpds NDJSON service. See README.md.

     main.exe run [--workload W]... [--seed N] [--seconds S] [--quick]
                  [--trace [0|1]] [--repeat N] [--out FILE]
     main.exe compare A.json B.json
     main.exe selfcheck [--seed N]
     main.exe calibrate

   [run] runs each workload in its own forked process — forked before
   any domain exists, so memory and GC state never leak between
   workloads — prints every metric with its unit, and ends its
   output with one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. It exits 1
   on a wrong verdict, an unanswered or twice-answered request, or a
   structured error. *)

module J = Xpds.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt
let num k v = match J.member k v with Some (J.Num x) -> x | _ -> 0.
let str k v = match J.member k v with Some (J.Str s) -> s | _ -> "?"

(* --- a workload in a child process --- *)

(* The result comes back marshalled, not as JSON text, so that every
   number keeps all its digits. *)
let in_child f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let out =
      match f () with
      | v -> v
      | exception e -> J.Obj [ ("error", J.Str (Printexc.to_string e)) ]
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (out : J.t) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let out = try Some (Marshal.from_channel ic : J.t) with End_of_file | Failure _ -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match out with
    | Some (J.Obj _ as v) when J.member "error" v = None -> v
    | Some v -> die "workload failed: %s" (J.to_string v)
    | None -> die "workload process died without a result")

let metrics_of key v =
  match J.member key v with
  | Some (J.Obj l) -> List.filter_map (fun (k, x) -> Option.map (fun x -> (k, x)) (J.to_float x)) l
  | _ -> []

(* --- the environment --- *)

let read_file f =
  try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
  with Sys_error _ -> None

let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" name) with
    | Some c -> c
    | None ->
      Option.bind (read_file ".git/packed-refs") (fun packed ->
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ c; r ] when r = name -> Some c
              | _ -> None)
            (String.split_on_char '\n' packed))
      |> Option.value ~default:"unknown")
  | Some c -> c

let cpu_model () =
  Option.bind (read_file "/proc/cpuinfo") (fun text ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.starts_with ~prefix:"model name" line ->
            Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' text))
  |> Option.value ~default:"unknown"

let environment () =
  J.Obj
    [ ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", J.Str (cpu_model ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str (git_commit ())) ]

(* --- run --- *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable quick : bool;
  mutable trace : bool;
  mutable repeat : int;
  mutable out : string option;
}

let parse_run args =
  let o =
    { workloads = []; seed = 1; seconds = None; quick = false; trace = false;
      repeat = 1; out = None }
  in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: not a number: %s" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w Workload.names) then
        die "unknown workload %s (one of %s)" w (String.concat ", " Workload.names);
      o.workloads <- o.workloads @ [ w ];
      go rest
    | "--seed" :: n :: rest ->
      o.seed <- int_arg "--seed" n;
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0. -> o.seconds <- Some x
      | _ -> die "--seconds: not a positive number: %s" s);
      go rest
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--repeat" :: n :: rest ->
      o.repeat <- max 1 (int_arg "--repeat" n);
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | a :: _ -> die "run: unexpected argument %s" a
  in
  go args;
  if o.workloads = [] then o.workloads <- Workload.names;
  o

let unit_of k =
  Option.value ~default:"" (List.assoc_opt k (Run.end_to_end @ Run.per_layer))

(* Per metric of [catalog], its value in every run. *)
let gather key runs catalog =
  List.filter_map
    (fun (k, _) ->
      match List.filter_map (fun r -> List.assoc_opt k (metrics_of key r)) runs with
      | [] -> None
      | xs -> Some (k, xs))
    catalog

let lo xs = List.fold_left min infinity xs
let hi xs = List.fold_left max neg_infinity xs

let print_metrics ?(note = fun _ -> "") values =
  List.iter
    (fun (k, xs) ->
      Printf.printf "  %-34s %14.6g %-6s%s%s\n" k (Stats.median xs) (unit_of k) (note k)
        (match xs with
        | [ _ ] -> ""
        | _ -> Printf.sprintf "  median of %d (min %.6g, max %.6g)" (List.length xs) (lo xs) (hi xs)))
    values

type outcome = {
  name : string;
  plain : J.t list;  (** untraced runs *)
  traced : J.t list;
  e2e : (string * float list) list;
  layer : (string * float list) list;
  correct : bool;
  attempted : int;
  failed : int;
}

let run_workload o ~seconds ~span_limit name =
  let child ~trace =
    in_child (fun () ->
        Run.run ~name ~seed:o.seed ~seconds ~quick:o.quick ~trace
          ~span_limit:(if trace then span_limit else 0))
  in
  let runs =
    List.init o.repeat (fun _ ->
        let plain = child ~trace:false in
        (plain, if o.trace then Some (child ~trace:true) else None))
  in
  let plain = List.map fst runs and traced = List.filter_map snd runs in
  let first = List.hd plain in
  Printf.printf "\n%s  digest %s  %d requests per round\n" name (str "digest" first)
    (int_of_float (num "requests" first));
  let e2e = gather "end_to_end" plain Run.end_to_end in
  print_metrics e2e ~note:(fun k -> if k = "tail_ms" then " " ^ str "tail" first else "");
  (* traced minus untraced, run by run *)
  let overhead k =
    List.map2
      (fun p t -> List.assoc k (metrics_of "end_to_end" t) -. List.assoc k (metrics_of "end_to_end" p))
      (List.filteri (fun i _ -> i < List.length traced) plain)
      traced
  in
  let layer =
    if traced = [] then []
    else gather "per_layer" traced Run.per_layer @ [ ("trace.p50_overhead_ms", overhead "p50_ms") ]
  in
  if layer <> [] then begin
    Printf.printf "  -- per layer, traced run --\n";
    print_metrics layer;
    Printf.printf "  -- tracing overhead: traced minus untraced --\n";
    List.iter
      (fun (k, u) -> Printf.printf "  %-34s %+14.6g %s\n" k (Stats.median (overhead k)) u)
      Run.end_to_end
  end;
  let all = plain @ traced in
  let correct = List.for_all (fun r -> J.member "correct" r = Some (J.Bool true)) all in
  let total k = List.fold_left (fun a r -> a + int_of_float (num k r)) 0 all in
  Printf.printf "  correct %b: %d requests, %d failed\n" correct (total "attempted") (total "failed");
  List.iter
    (fun r ->
      match J.member "problems" r with
      | Some (J.Arr ps) -> List.iter (function J.Str p -> Printf.printf "  ! %s\n" p | _ -> ()) ps
      | _ -> ())
    all;
  { name; plain; traced; e2e; layer; correct; attempted = total "attempted";
    failed = total "failed" }

let write_results o ~seconds ~correct file results =
  let summary l =
    J.Obj
      (List.map
         (fun (k, xs) ->
           ( k,
             J.Obj
               [ ("unit", J.Str (unit_of k));
                 ("median", J.Num (Stats.median xs));
                 ("min", J.Num (lo xs));
                 ("max", J.Num (hi xs));
                 ("values", J.Arr (List.map (fun x -> J.Num x) xs)) ] ))
         l)
  in
  let strip = function J.Obj l -> J.Obj (List.remove_assoc "spans" l) | v -> v in
  let doc =
    J.Obj
      [ ("environment", environment ());
        ("seed", J.Num (float_of_int o.seed));
        ("seconds", J.Num seconds);
        ("quick", J.Bool o.quick);
        ("repeat", J.Num (float_of_int o.repeat));
        ("correct", J.Bool correct);
        ( "workloads",
          J.Obj
            (List.map
               (fun r ->
                 ( r.name,
                   J.Obj
                     [ ("digest", J.Str (str "digest" (List.hd r.plain)));
                       ("end_to_end", summary r.e2e);
                       ("per_layer", summary r.layer);
                       ("runs", J.Arr (List.map strip (r.plain @ r.traced))) ] ))
               results) ) ]
  in
  let write f v = Out_channel.with_open_text f (fun oc -> output_string oc (J.to_string v ^ "\n")) in
  write file doc;
  if o.trace then
    write (file ^ ".trace.json")
      (J.Obj
         (List.map
            (fun r -> (r.name, J.Arr (List.filter_map (J.member "spans") r.traced)))
            results));
  Printf.printf "\nwrote %s%s\n" file (if o.trace then " and " ^ file ^ ".trace.json" else "")

let run args =
  let o = parse_run args in
  let seconds = Option.value o.seconds ~default:(if o.quick then 2. else 15.) in
  let span_limit = if o.out = None then 0 else 1000 in
  Printf.printf "xpds benchmark: seed %d, %g s per run%s%s\n" o.seed seconds
    (if o.quick then ", quick" else "")
    (if o.trace then ", traced" else "");
  let results = List.map (run_workload o ~seconds ~span_limit) o.workloads in
  let correct = List.for_all (fun r -> r.correct) results in
  Option.iter (fun f -> write_results o ~seconds ~correct f results) o.out;
  (* The last line: end-to-end metrics of the untraced runs, or per-layer
     metrics of the traced ones; medians over repeats, named by workload
     when there are several. *)
  let name r k = if List.length results > 1 then r.name ^ "." ^ k else k in
  (* every digit of a value: the shortest form that reads back the same *)
  let digits x =
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15
  in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (k, xs) ->
            Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} (name r k)
              (digits (Stats.median xs)) (unit_of k))
          (if o.trace then r.layer else r.e2e))
      results
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct
    (sum (fun r -> r.attempted)) (sum (fun r -> r.failed)) (String.concat "," metrics);
  print_newline ();
  exit (if correct then 0 else 1)

(* --- compare --- *)

let load file =
  match J.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok v -> v
  | Error e -> die "%s: %s" file e
  | exception Sys_error e -> die "%s" e

(* Direction and bound of each end-to-end metric, from BENCHMARK.json. *)
let bounds () =
  match J.member "end_to_end" (load "BENCHMARK.json") with
  | Some (J.Arr l) ->
    List.filter_map
      (fun m ->
        match (J.member "name" m, J.member "better" m, J.member "bound" m) with
        | Some (J.Str n), Some (J.Str b), Some (J.Num x) -> Some (n, (b = "lower", x))
        | _ -> None)
      l
  | _ -> die "BENCHMARK.json has no end_to_end list"

let values doc workload metric =
  let ( let* ) = Option.bind in
  (let* ws = J.member "workloads" doc in
   let* w = J.member workload ws in
   let* e = J.member "end_to_end" w in
   let* m = J.member metric e in
   let* l = J.member "values" m in
   J.to_list l)
  |> Option.value ~default:[]
  |> List.filter_map J.to_float

(* The rule of the choosing-metrics guide. B is better when it wins at
   least 9 in 10 of the (A, B) pairs, ties counting for neither, and the
   medians differ by more than A's quartile spread; worse when its
   median is worse than A's by more than the bound; unresolved when A's
   own spread is wider than the bound, unless every run of B beats every
   run of A. *)
let verdict ~lower ~bound a b =
  let beats x y = if lower then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, _, q3 = Stats.quartiles a in
  let n = min (List.length a) (List.length b) in
  let pairs = List.combine (List.filteri (fun i _ -> i < n) a) (List.filteri (fun i _ -> i < n) b) in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  if n > 0 && 10 * wins >= 9 * n && Float.abs (mb -. ma) > q3 -. q1 then "better"
  else if if lower then mb > ma *. (1. +. bound) else mb < ma *. (1. -. bound) then "worse"
  else if (q3 -. q1) /. Float.abs ma > bound
          && not (List.for_all (fun y -> List.for_all (beats y) a) b)
  then "unresolved"
  else "unchanged"

let compare_files a_file b_file =
  let a = load a_file and b = load b_file in
  let bounds = bounds () in
  let workloads d = match J.member "workloads" d with Some (J.Obj l) -> List.map fst l | _ -> [] in
  let common = List.filter (fun w -> List.mem w (workloads b)) (workloads a) in
  if common = [] then die "no workload in common";
  Printf.printf "%-11s %-15s %-30s %-30s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "verdict";
  let worse = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun (metric, (lower, bound)) ->
          let va = values a w metric and vb = values b w metric in
          if va <> [] && vb <> [] then begin
            let show v =
              let q1, q2, q3 = Stats.quartiles v in
              Printf.sprintf "%.5g [%.5g, %.5g]" q2 q1 q3
            in
            let v = verdict ~lower ~bound va vb in
            if v = "worse" then worse := true;
            Printf.printf "%-11s %-15s %-30s %-30s %s\n" w metric (show va) (show vb) v
          end)
        bounds)
    common;
  exit (if !worse then 1 else 0)

(* --- selfcheck --- *)

(* Every workload's input digest, computed in a process of its own. *)
let digests ~seed =
  in_child (fun () ->
      J.Obj
        (List.map
           (fun name ->
             (name, J.Str (Workload.generate ~name ~seed ~quick:false).digest))
           Workload.names))

let selfcheck args =
  let seed = match args with [ "--seed"; n ] -> int_of_string n | _ -> 1 in
  let a = digests ~seed and b = digests ~seed and c = digests ~seed:(seed + 1) in
  let ok =
    List.for_all
      (fun name ->
        let same = str name a = str name b and differs = str name a <> str name c in
        Printf.printf "%-11s seed %d: %s, again %s, seed %d %s\n" name seed (str name a)
          (if same then "identical" else "DIFFERENT")
          (seed + 1)
          (if differs then "differs" else "IDENTICAL");
        same && differs)
      Workload.names
  in
  print_endline (if ok then "selfcheck ok" else "selfcheck FAILED");
  exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | [ _; "compare"; a; b ] -> compare_files a b
  | _ :: "selfcheck" :: args -> selfcheck args
  | [ _; "calibrate" ] -> Calibrate.run ()
  | _ ->
    die
      "usage: main.exe run [--workload W]... [--seed N] [--seconds S] [--quick]\n\
      \                    [--trace [0|1]] [--repeat N] [--out FILE]\n\
      \       main.exe compare A.json B.json\n\
      \       main.exe selfcheck [--seed N]\n\
      \       main.exe calibrate"
