(* The four workloads as seeded request streams.

   A stream depends only on the seed (and on --quick). Nothing here
   calls the solver; duplicates are removed by printed text, never by
   the library's canonical form, so the text a workload sends cannot
   depend on the code it measures. *)

open Xpds.Ast
open Inputs

type known = K_sat | K_unsat | K_holds | K_fails

type request = {
  id : string;
  line : string;
  body : body;
  known : known option;  (** answer known by construction *)
}

type t = {
  name : string;
  prep : request array;  (** warm-store: the key set solved before timing *)
  docs : (string * Xpds.Data_tree.t) list;  (** eval-docs: registered *)
  rounds : request array array;  (** distinct rounds; a run uses them in turn *)
  digest : string;  (** MD5 of every line and document sent *)
}

let names = [ "hard-solve"; "light-mix"; "warm-store"; "eval-docs" ]

(* --- request text --- *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let doctype_json rules =
  let rule (r : Xpds.Doctype.rule) =
    Printf.sprintf {|{"parent":%s,"at_least":[%s],"forbidden":[%s]}|}
      (jstr r.parent)
      (String.concat ","
         (List.map (fun (k, l) -> Printf.sprintf "[%d,%s]" k (jstr l)) r.at_least))
      (String.concat "," (List.map jstr r.forbidden))
  in
  "[" ^ String.concat "," (List.map rule rules) ^ "]"

(* The fields after "id", so that two requests differing only in id
   compare equal. *)
let fields ?timeout_ms body =
  let timeout =
    match timeout_ms with
    | Some ms -> Printf.sprintf {|,"timeout_ms":%d|} ms
    | None -> ""
  in
  match body with
  | Sat n -> Printf.sprintf {|"formula":%s%s|} (jstr (text n)) timeout
  | Contains (a, b) ->
    Printf.sprintf {|"kind":"contains","phi":%s,"psi":%s%s|} (jstr (text a))
      (jstr (text b)) timeout
  | Equiv (a, b) ->
    Printf.sprintf {|"kind":"equiv","phi":%s,"psi":%s%s|} (jstr (text a))
      (jstr (text b)) timeout
  | Doctype (n, d) ->
    Printf.sprintf {|"kind":"sat_under_doctype","formula":%s,"doctype":%s%s|}
      (jstr (text n)) (doctype_json d) timeout
  | Eval_tree (q, t) ->
    Printf.sprintf {|"kind":"eval","formula":%s,"tree":%s,"limit":10%s|}
      (jstr (text q))
      (jstr (tree_to_text t))
      timeout
  | Eval_doc (q, d) ->
    Printf.sprintf {|"kind":"eval","formula":%s,"doc":%s,"limit":10%s|}
      (jstr (text q)) (jstr d) timeout

let request ~prefix i ?known fields_text body =
  let id = Printf.sprintf "%s%d" prefix i in
  { id; line = Printf.sprintf {|{"id":%s,%s}|} (jstr id) fields_text; body; known }

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let digest_of ?(docs = []) parts =
  let ctx = Buffer.create 4096 in
  List.iter
    (fun a ->
      Array.iter
        (fun r ->
          Buffer.add_string ctx r.line;
          Buffer.add_char ctx '\n')
        a)
    parts;
  List.iter
    (fun (name, t) ->
      Buffer.add_string ctx name;
      Buffer.add_char ctx '=';
      Buffer.add_string ctx (tree_to_text t);
      Buffer.add_char ctx '\n')
    docs;
  Digest.to_hex (Digest.string (Buffer.contents ctx))

let make ?(prep = [||]) ?(docs = []) name rounds =
  { name; prep; docs; rounds; digest = digest_of ~docs (prep :: Array.to_list rounds) }

let requests t = Array.concat (Array.to_list t.rounds)

(* Pool entries after the calibration exclusions (Inputs). *)
let vetted pool excluded =
  let pool = Lazy.force pool in
  Array.of_list
    (List.filteri (fun i _ -> not (List.mem i excluded)) (Array.to_list pool))

(* A deterministic endless walk over [pool]: successive seeded
   permutations, so every entry is used once before any is reused. *)
let walker st pool =
  let order = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !order then begin
      order := shuffle st pool;
      pos := 0
    end;
    incr pos;
    !order.(!pos - 1)

(* Draw [n] bodies from [next] whose request text (without id) has not
   been drawn before; [fresh] relabels each draw, and [keep i fields
   body] is what is kept of the i-th. [seen] holds the texts' digests. *)
let distinct ?(seen = Hashtbl.create 1024) ?timeout_ms ~keep ~n next fresh =
  let out = ref [] and got = ref 0 in
  while !got < n do
    let body = fresh (next ()) in
    let f = fields ?timeout_ms body in
    let d = Digest.string f in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.add seen d ();
      out := keep !got f body :: !out;
      incr got
    end
  done;
  Array.of_list (List.rev !out)

let pair _ f b = (f, b)

(* --- hard-solve --- *)

(* Families within the sizes the legacy corpus uses (bench/corpus.ml),
   each with its answer. data_chain sat 4, data_chain unsat 3,
   desc_data unsat 1 and reg_alternation unsat end [unknown] when the
   transition budget runs out: they carry most of the workload's time
   (98 % of the legacy corpus's cold run at the default budget). *)
let families ~quick =
  let s k = (Sat k, Some K_sat) and u k = (Sat k, Some K_unsat) in
  let budget = [
      s (data_chain ~sat:true 4); u (data_chain ~sat:false 3);
      u (desc_data ~sat:false 1); u (reg_alternation ~sat:false) ]
  in
  List.concat
    [ List.concat_map
        (fun n -> [ s (child_chain ~sat:true n); u (child_chain ~sat:false n) ])
        [ 6; 7; 8; 9 ];
      [ s (data_chain ~sat:true 2); s (data_chain ~sat:true 3);
        u (data_chain ~sat:false 2) ];
      [ s (desc_data ~sat:true 1); s (desc_data ~sat:true 2) ];
      List.map (fun n -> s (root_data n)) [ 3; 4; 5 ];
      [ s (reg_alternation ~sat:true) ];
      List.concat_map
        (fun n -> [ s (mixed_axes ~sat:true n); u (mixed_axes ~sat:false n) ])
        [ 4; 5; 6 ];
      (if quick then [] else budget)
    ]

(* The hard-solve service: the default configuration with a tenth of
   the default 200k-transition budget. At the default budget the four
   formulas above take 3-5 s each and one round takes 12 s, and their
   run-to-run spread on the reference box (two cores of a Xeon VM) is
   +-15 %; at 20k each takes about 0.1-0.5 s, and a run holds several
   rounds. *)
let hard_config = Xpds.Service.Config.(default |> with_max_transitions 20_000)

(* Distinct rounds per run; a run that fits more uses them again. *)
let hard_rounds = 16

let parse s = Xpds.Ast.as_node (Xpds.Parser.formula_of_string_exn s)

let hard_solve ~seed ~quick =
  let st = Random.State.make [| 0x4a5d; seed |] in
  let pairs =
    List.map
      (fun (_, phi, psi, k) ->
        ( Contains (parse phi, parse psi),
          Some (match k with `Holds -> K_holds | `Fails -> K_fails) ))
      contains_pairs
  in
  let doctypes =
    List.map
      (fun (_, f, rules, k) ->
        (Doctype (parse f, rules), Some (match k with `Sat -> K_sat | `Unsat -> K_unsat)))
      doctype_cases
  in
  let generated =
    vetted hard_generated hard_excluded
    |> Array.to_list
    |> List.filteri (fun i _ -> (not quick) || i < 8)
    |> List.map (fun b -> (b, None))
  in
  let items = Array.of_list (families ~quick @ pairs @ doctypes @ generated) in
  (* Each round relabels every request with fresh names — so every cache
     key is distinct — and sends them in a fresh order: the rounds of a
     run then average over names and orders, which move single
     requests' costs. *)
  let round r =
    Array.mapi
      (fun i (body, known) ->
        request ~prefix:(Printf.sprintf "h%d." r) i ?known (fields ~timeout_ms:10000 body) body)
      (shuffle st (Array.map (fun (b, k) -> (rename_fresh st b, k)) items))
  in
  make "hard-solve" (Array.init hard_rounds round)

(* --- light-mix --- *)

(* Round [r]: distinct texts, the vetted templates in seeded order, each
   relabeled into single-letter labels. *)
let light_round ~seed ~quick r =
  let st = Random.State.make [| 0x119; seed; r |] in
  let next = walker st (vetted light_pool light_excluded) in
  distinct ~timeout_ms:100
    ~keep:(fun i f b -> request ~prefix:(Printf.sprintf "l%d." r) i f b)
    ~n:(if quick then 1000 else 8000)
    next (rename_into st letters)

let light_mix ~seed ~quick = make "light-mix" (Array.init 4 (light_round ~seed ~quick))

(* --- warm-store --- *)

let zipf_s = 0.8

let warm_store ~seed ~quick =
  let st = Random.State.make [| 0x57043; seed |] in
  let keys = if quick then 600 else 3000 in
  let per_round = if quick then 2000 else 20000 in
  let sats =
    Array.of_list
      (List.filter
         (function Sat _ -> true | _ -> false)
         (Array.to_list (vetted light_pool light_excluded)))
  in
  let next = walker st sats in
  let seen = Hashtbl.create 4096 in
  let key_set =
    distinct ~seen ~timeout_ms:10000 ~keep:pair ~n:keys next (rename_into st letters)
  in
  let prep = Array.mapi (fun i (f, b) -> request ~prefix:"p" i f b) key_set in
  (* Zipf over the key set's (already seeded) order. *)
  let cdf = Array.make keys 0. in
  let acc = ref 0. in
  for r = 0 to keys - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** zipf_s));
    cdf.(r) <- !acc
  done;
  let zipf () =
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let requests =
    Array.init per_round (fun i ->
        if Random.State.int st 10 = 0 then
          let f, b =
            (distinct ~seen ~timeout_ms:10000 ~keep:pair ~n:1 next (rename_into st letters)).(0)
          in
          request ~prefix:"w" i f b
        else
          let f, b = key_set.(zipf ()) in
          request ~prefix:"w" i f b)
  in
  make ~prep "warm-store" [| requests |]

(* --- eval-docs --- *)

(* Document sizes. The evaluator materialises a path's relation as one
   dense n-bit row per node (n²/8 bytes: 2.8 GB per path at 150k nodes,
   50 MB at 20k), so the documents stay at a size where the memo of a
   few dozen paths fits in memory. *)
let doc_sizes = [ ("small", 1500); ("large", 4500) ]
let doc_labels = [ "a"; "b"; "c"; "d"; "e" ]

let eval_docs ~seed ~quick =
  let st = Random.State.make [| 0xe7a1; seed |] in
  let per_round = if quick then 2000 else 20000 in
  let docs =
    List.map
      (fun (name, n) -> (name, random_tree st ~labels:doc_labels ~data:50 ~n))
      doc_sizes
  in
  (* A bounded pool of atoms over a bounded set of paths: fresh queries
     share their subformulas, and the memo of paths stays small. *)
  let label () = pick st doc_labels in
  let path () =
    match Random.State.int st 3 with
    | 0 -> Filter (down, lab (label ()))
    | 1 -> Filter (desc, lab (label ()))
    | _ -> Seq (down, Filter (down, lab (label ())))
  in
  let atom () =
    match Random.State.int st 5 with
    | 0 -> lab (label ())
    | 1 | 2 -> Exists (path ())
    | 3 -> eq eps (path ())
    | _ ->
      let p = path () in
      let op = if Random.State.bool st then Eq else Neq in
      Cmp (p, op, path ())
  in
  let atoms = Array.init 40 (fun _ -> atom ()) in
  let a () = atoms.(Random.State.int st (Array.length atoms)) in
  let query () =
    let x = a () in
    let y = a () in
    match Random.State.int st 4 with
    | 0 -> And (x, y)
    | 1 -> Or (x, And (y, a ()))
    | 2 -> And (x, Not y)
    | _ -> Or (Not x, y)
  in
  let seen = Hashtbl.create 4096 in
  (* 30 % of the requests repeat an earlier query text. *)
  let earlier = Array.make per_round ("", Sat True) and n_earlier = ref 0 in
  let requests =
    Array.init per_round (fun i ->
        let f, b =
          if !n_earlier > 0 && Random.State.int st 10 < 3 then
            earlier.(Random.State.int st !n_earlier)
          else
            let doc = fst (pick st docs) in
            let fresh =
              (distinct ~seen ~keep:pair ~n:1 query (fun q -> Eval_doc (q, doc))).(0)
            in
            earlier.(!n_earlier) <- fresh;
            incr n_earlier;
            fresh
        in
        request ~prefix:"e" i f b)
  in
  make ~docs "eval-docs" [| requests |]

let generate ~name ~seed ~quick =
  match name with
  | "hard-solve" -> hard_solve ~seed ~quick
  | "light-mix" -> light_mix ~seed ~quick
  | "warm-store" -> warm_store ~seed ~quick
  | "eval-docs" -> eval_docs ~seed ~quick
  | _ -> invalid_arg ("unknown workload " ^ name)
