(** The repository's one minimal JSON reader/writer.

    The repo deliberately has no external JSON dependency; this module
    provides just enough of RFC 8259 for its three consumers — the
    [xpds serve] NDJSON loop, the [--json] CLI renderings
    ({!Xpds.Serialize}) and the certificate files ({!Xpds_cert}):
    objects, arrays, strings, numbers, booleans, null. Numbers are
    represented as [float], like every small JSON library.

    Strings take every RFC 8259 escape. A [\uXXXX] escape outside the
    surrogate range U+D800–U+DFFF is that code point of the BMP in
    UTF-8; a high surrogate followed by a [\u] low surrogate is one
    code point above U+FFFF, in 4-byte UTF-8; a surrogate on its own is
    an error ([bad \u escape]). Raw bytes, control characters
    included, are taken as they are; the reader does not check that
    they are UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string
      (** JSON text rendered ahead of time, written verbatim by
          {!to_string}; the producer vouches that it is valid JSON.
          {!parse} never returns it. *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. An
    [Error] names what went wrong and the byte offset where. *)

val to_string : t -> string
(** Compact (single-line) rendering, suitable for NDJSON. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; the first field of that name wins.
    [None] on other constructors. *)

val to_float : t -> float option
val to_str : t -> string option
(** [to_str] accepts [Str]; [to_float] accepts [Num]. *)

val to_int : t -> int option
(** Accepts [Num] holding an exactly-representable integer. *)

val to_bool : t -> bool option
val to_list : t -> t list option

val num_to_string : float -> string
(** The number rendering used by {!to_string}: integral floats below
    1e15 in magnitude print as integers ([-0.] as ["-0"]), every other
    float in C's [%.6g] — the bytes [Printf]'s ["%.0f"] and ["%g"]
    give, without the format interpreter. *)
