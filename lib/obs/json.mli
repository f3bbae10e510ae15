(** JSON: the value type, a strict reader and the one string escaper.
    Every emitter keeps its own hand-written layout and escapes strings
    through {!escape}; tests read the documents back with {!parse}.
    There is no printer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

exception Error of string

val parse : string -> t
(** RFC 8259, strictly: no trailing commas, leading zeros, [nan]/[inf]
    or raw control bytes in strings, nothing but whitespace after the
    value. [\uXXXX] escapes (surrogate pairs too) decode to UTF-8; other
    string bytes are kept. Raises {!Error} with the byte offset. *)

val escape : string -> string
(** A string literal's body, unquoted: ["\""], ["\\"] and newline take
    short escapes, other bytes below 0x20 [\u00XX]. *)

val member : string -> t -> t option
(** An object's first field named [k]; [None] if absent or not an object. *)

val num : t -> float
val list : t -> t list
(** [num] and [list] raise {!Error} on a value of another kind. *)
