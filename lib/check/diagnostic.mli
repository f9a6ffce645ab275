(** Structured diagnostics for the static verification layer.

    Every pre-flight analyzer (netlist, SHIL config, scenario files)
    reports findings as values of {!t}; severities split hard errors —
    conditions under which the downstream numerical analysis is known to
    be ill-posed — from warnings and purely informational notes. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;  (** stable kebab-case identifier, e.g. ["vsource-loop"] *)
  loc : string;  (** device, node, file:line or parameter the finding anchors to *)
  msg : string;
}

val make : severity -> code:string -> loc:string -> string -> t
val error : code:string -> loc:string -> string -> t
val warning : code:string -> loc:string -> string -> t
val info : code:string -> loc:string -> string -> t

val errors : t list -> t list
val count_severity : severity -> t list -> int

val pp : Format.formatter -> t -> unit
(** [error[vsource-loop] V2: ...] single-line rendering. *)

val pp_report : Format.formatter -> t list -> unit

val list_to_json : t list -> string
(** Machine-readable rendering for [oshil lint --json]. *)

val file_to_json : file:string -> t list -> string
(** One file's entry in a JSON lint report:
    [{"file":…,"errors":…,"warnings":…,"diagnostics":[…]}]. The shared
    format of [oshil lint --json], the daemon's [lint] op and
    [dsa --json]. *)

exception Failed of t list
(** Raised by {!gate} (and the [Spice]/[Shil] entry points) when a
    pre-flight check reports errors; carries the error diagnostics. *)

type gate_mode = [ `Enforce | `Warn | `Off ]

val gate : ?mode:gate_mode -> emit:(t -> unit) -> t list -> unit
(** [`Enforce] (default) sends warnings/infos to [emit] and raises
    {!Failed} when any error is present; [`Warn] sends everything to
    [emit] and never raises; [`Off] discards the report. *)
