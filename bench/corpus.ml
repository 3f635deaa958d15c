(* The shared benchmark corpus: ≥100 formulas across the Fig. 4
   fragments — every bench family at several sizes, plus seeded random
   formulas. Deterministic by construction (fixed seeds). It is the
   cold corpus behind BENCH_emptiness.json and the smoke's store leg:
   do not reorder or resize it without regenerating that artifact. *)

let formulas () =
  let families =
    List.concat
      [ List.init 8 (fun i -> Families.child_chain ~sat:true (i + 1));
        List.init 8 (fun i -> Families.child_chain ~sat:false (i + 1));
        List.init 3 (fun i -> Families.data_chain ~sat:true (i + 2));
        List.init 2 (fun i -> Families.data_chain ~sat:false (i + 2));
        List.init 2 (fun i -> Families.desc_data ~sat:true (i + 1));
        [ Families.desc_data ~sat:false 1 ];
        List.init 3 (fun i -> Families.root_data (i + 1));
        [ Families.reg_alternation ~sat:true ();
          Families.reg_alternation ~sat:false ()
        ];
        List.init 5 (fun i -> Families.mixed_axes ~sat:true (i + 1));
        List.init 5 (fun i -> Families.mixed_axes ~sat:false (i + 1))
      ]
  in
  let random =
    List.init 64 (fun i ->
        Gen_formula.gen ~state:(Random.State.make [| 0xBE5E; i |]) ())
  in
  families @ random

let sat_request ?timeout_ms id phi = { Xpds.Request.id; timeout_ms; body = Sat phi }

let requests fs = List.mapi (fun i phi -> sat_request (Printf.sprintf "f%03d" i) phi) fs

(* One solver-backed request (sat, contains or sat_under_doctype)
   through the service's single entry point, as its verdict response. *)
let solve ?trace svc (r : Xpds.Request.t) =
  match Xpds.Service.handle ?trace svc r with
  | Sat_answer resp | Contains_answer resp | Doctype_answer resp -> resp
  | Equiv_answer _ | Eval_answer _ -> invalid_arg "Corpus.solve: not a verdict request"

(* A number of a metrics JSON object ({!Xpds.Service.metrics}) by path,
   e.g. [metric m [ "store"; "disk_hits" ]]; fails when it is absent. *)
let metric m path =
  let field j k =
    match Xpds.Json.member k j with
    | Some v -> v
    | None -> failwith ("Corpus.metric: no " ^ String.concat "." path)
  in
  match Xpds.Json.to_float (List.fold_left field m path) with
  | Some x -> x
  | None -> failwith ("Corpus.metric: not a number: " ^ String.concat "." path)
