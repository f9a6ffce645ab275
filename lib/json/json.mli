(** Minimal JSON: the one codec of the tree. It is the wire format of
    the request/response protocol, the escaper of every JSON emitter
    (trace sinks, run-health and lint reports) and the parser that
    replays JSONL traces.

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

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes,
    escaped as {!to_string} escapes strings: quote and backslash get a
    backslash; newline, carriage return, tab, backspace and form feed
    their two-character escapes; other control characters [\u00XX];
    every other byte, UTF-8 included, passes through. For emitters that
    lay out their own JSON text. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val get_string : t -> string option
val get_float : t -> float option
val get_int : t -> int option
(** [Num] fields that are integral doubles; [None] otherwise. *)

val get_bool : t -> bool option
val get_list : t -> t list option
