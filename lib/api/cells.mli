(** The oscillator table behind every request's ["osc"]: for a builtin
    cell or a custom tanh cell, its describing-function model, its
    transient netlist with or without the injected tone, the signal that
    netlist is probed on, and its [i = f(v)] table. Every analysis op
    resolves its oscillator here, so [lockrange --validate] and
    [transient] simulate the same netlist the DF side models. *)

type injection = { n : int; vi : float; f_inj : float }

type t = {
  tank : Shil.Tank.t;
  oscillator : unit -> Shil.Analysis.oscillator;
      (** the describing-function model; a device cell extracts its
          [f(v)] on each call *)
  circuit : injection option -> Spice.Circuit.t;
      (** the kicked transient netlist, with the injected tone *)
  probe : Spice.Transient.probe;
  fv : unit -> float array * float array;  (** the [oshil dcsweep] table *)
  lock_trial : float * int;
      (** cycles and steps per cycle of one transient lock trial *)
}

val of_spec : Request.osc_spec -> t
(** Builds only the named cell's row, and no [f(v)] extraction until
    [oscillator] or [fv] is called. Unknown names raise a typed
    [parse-failure]. *)
