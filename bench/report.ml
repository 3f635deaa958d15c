(* The BENCH_*.json emitter shared by the emptiness and load entries.

   Both artifacts share an envelope — which bench, the solver
   configuration fingerprint it ran under, wall clock, and the named
   pass/fail gates — followed by the bench's own payload fields, so a
   reader can tell "did it pass, how long, under what solver" without
   knowing either bench's private layout. *)

module Json = Xpds.Json

(* [write ~out ~bench ?config ~wall_s ~gates fields] writes

     { "bench": .., "config_fingerprint": .., "wall_s": ..,
       "gates": {name: bool, ..}, "gates_passed": bool,
       ...fields }

   and returns whether every gate passed (the bench's exit status). *)
let write ~out ~bench ?(config = Xpds.Service.Config.default) ~wall_s ~gates
    fields =
  let passed = List.for_all snd gates in
  let json =
    Json.Obj
      ([ ("bench", Json.Str bench);
         ( "config_fingerprint",
           Json.Str
             (Xpds.Service.Config.fingerprint config.Xpds.Service.Config.solver)
         );
         ("wall_s", Json.Num (Float.round (wall_s *. 1000.) /. 1000.));
         ( "gates",
           Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) gates) );
         ("gates_passed", Json.Bool passed)
       ]
      @ fields)
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote %s@." out;
  passed
