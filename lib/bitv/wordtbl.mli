(** Interning tables over raw word sequences.

    The emptiness fixpoint looks up millions of short keys (merging
    keys, memo keys, extended states) that it builds in reusable scratch
    buffers. A [Wordtbl.t] stores every key it admits in one flat pool
    and answers a probe straight from the caller's buffer, so a lookup
    that finds its key allocates nothing and calls no functor. Keys get
    dense ids [0, 1, 2, …] in insertion order. *)

type t

val create : int -> t
(** [create n]: an empty table sized for about [n] keys (it grows). *)

val clear : t -> unit
(** Forget every key; the storage is kept. *)

val length : t -> int
(** The number of keys admitted: the next {!add} returns this id. *)

val hash : int array -> int -> int -> int
(** [hash src pos len]: the hash of the words [src.(pos) ..
    src.(pos + len - 1)], as {!find} and {!add} expect it. *)

val finish : int -> int
(** [finish acc]: the hash of a key whose words were folded into [acc]
    as {!hash} folds them — [acc] starts at [len + 0x64] and takes each
    word [w] as [(acc lxor (w lxor (w lsr 31))) * 0x01000193]. For
    callers that hash a key while they build it. *)

val find : t -> int array -> int -> int -> int -> int
(** [find t src pos len h]: the id of the key equal to those [len]
    words, or [-1]. [h] must be [hash src pos len]. *)

val add : t -> int array -> int -> int -> int -> int
(** [add t src pos len h] copies a key that {!find} does not hold into
    the pool and returns its id. *)

val find_with : t -> int -> (int -> bool) -> int
(** [find_with t h same]: the id of a key with hash [h] for which
    [same id] holds, or [-1] — for a table whose keys live elsewhere,
    which the caller adds with no words ([add t src 0 0 h]) and compares
    itself. *)

val intern : t -> int array -> int -> int -> int
(** [find], then [add] if absent: the key's id, which is
    [length t] before the call iff the key is new. *)

val key : t -> int -> int array
(** [key t id]: a fresh copy of key [id]'s words. *)
