type t = int

(* The intern table is global mutable state shared by every solver run;
   a library caller may solve from several domains at once (e.g. two
   Translate runs interning "@other"; the service's single-flight tests
   do), so registration is guarded by a mutex. Reads ([to_string]/[of_int]) stay lock-free: an id is
   only handed out after its name is written, and [names] grows by
   copying, so any array version with [i < !next] has a valid entry at
   [i]. *)
let lock = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string array ref = ref (Array.make 64 "")
let next = ref 0

let of_string s =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table s with
      | Some i -> i
      | None ->
        let i = !next in
        if i >= Array.length !names then begin
          let grown = Array.make (2 * Array.length !names) "" in
          Array.blit !names 0 grown 0 (Array.length !names);
          names := grown
        end;
        !names.(i) <- s;
        Hashtbl.add table s i;
        (* publish the id last *)
        next := i + 1;
        i)

let to_string i =
  if i < 0 || i >= !next then invalid_arg "Label.to_string: unknown label";
  !names.(i)

let of_int i =
  if i < 0 || i >= !next then invalid_arg "Label.of_int: unknown label";
  i

let to_int i = i
let card () = !next
let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf i = Format.pp_print_string ppf (to_string i)
