(** Minimal JSON: the wire format of the request/response protocol.

    Self-contained (the toolchain ships no JSON library) and
    deliberately small: values, a strict parser returning [result], and
    a deterministic single-line printer — the same value always renders
    to the same bytes, which is what the byte-identity contract between
    the CLI and server paths rests on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** insertion order is preserved *)

val parse : string -> (t, string) result
(** Strict RFC-8259 parser. Rejects trailing garbage, unterminated
    literals and inputs nested deeper than an internal limit (so a
    hostile request cannot blow the daemon's stack). Never raises. *)

val to_string : t -> string
(** Deterministic single-line rendering: no whitespace, object fields
    in insertion order, integral doubles printed without a fraction,
    others via [%.17g] (round-trips every finite double exactly);
    non-finite numbers render as [null] (JSON has no NaN). Strings are
    escaped (quotes, backslashes, control characters as [\u00XX])
    straight into the output buffer. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val get_string : t -> string option
val get_float : t -> float option
val get_int : t -> int option
(** [Num] fields that are integral doubles; [None] otherwise. *)

val get_bool : t -> bool option
val get_list : t -> t list option
