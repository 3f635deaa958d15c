
type t = {
  submit : string -> unit;
  pump : unit -> unit;
  drain : unit -> unit;
  pending : unit -> int;
  wait : Unix.file_descr list -> float -> Unix.file_descr list;
  metrics_json : unit -> Json.t option;
  close : unit -> unit;
}

(* A synchronous engine has no internal I/O to wait on: waiting is
   just selecting on the caller's descriptors. *)
let default_wait fds timeout =
  if fds = [] then []
  else
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | ready, _, _ -> ready

let make ~submit ?(pump = fun () -> ()) ?(drain = fun () -> ())
    ?(pending = fun () -> 0) ?(wait = default_wait)
    ?(metrics_json = fun () -> None) ?(close = fun () -> ()) () =
  { submit; pump; drain; pending; wait; metrics_json; close }

let submit t line = t.submit line
let pump t = t.pump ()
let wait t ?(read_fds = []) timeout = t.wait read_fds timeout
let drain t = t.drain ()
let pending t = t.pending ()
let metrics_json t = t.metrics_json ()
let close t = t.close ()

let in_process ?default_timeout_ms ?trace ?extra_of ~emit svc =
  make
    ~submit:(fun line ->
      emit (Service.handle_line ?default_timeout_ms ?trace ?extra_of svc line))
    ~metrics_json:(fun () -> Some (Service.metrics svc))
    ()
