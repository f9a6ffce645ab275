(** SHIL scenario files: a [key = value] description of an analysis
    configuration that [oshil lint] (and future batch runners) can
    validate without executing anything.

    Recognized keys: [osc] (tanh | custom | diffpair | tunnel), [g0],
    [isat], [r], [l], [c], [fc], [q], [n], [vi], [a_lo], [a_hi],
    [n_phi], [n_amp], [points]. [#], [;] and leading [*] start comments.
    The tank is given as r/l/c, or as r/fc/q which is converted.

    Additional diagnostic codes: [scenario-parse] (error),
    [scenario-osc] (error), [scenario-unknown-key] (warning). *)

type t = {
  osc : string;
  g0 : float option;
  isat : float option;
  r : float option;
  l : float option;
  c : float option;
  fc : float option;
  q : float option;
  n : int;
  vi : float;
  a_lo : float option;
  a_hi : float option;
  n_phi : int option;
  n_amp : int option;
  points : int option;
}

val parse_string : ?name:string -> string -> t * Diagnostic.t list
(** Never fails: parse problems are returned as diagnostics (located
    [name:line]) alongside the best-effort scenario. *)

val parse_file : string -> t * Diagnostic.t list

val resolve_tank : t -> float * float * float
(** [(r, l, c)] with fc/q converted and defaults filled in
    (r = 1 kOhm, fc = 1 MHz, Q = 10). *)

val check : ?nl:(float -> float) -> t -> Diagnostic.t list
(** Validates the resolved configuration with {!Shil.check}; pass the
    oscillator's nonlinearity as [nl] to include the pointwise probes. *)
