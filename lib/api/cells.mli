(** The oscillator table behind every request's ["osc"] and every paper
    experiment: for a builtin cell or a custom tanh cell, its
    describing-function model, its transient netlist with or without the
    injected tone, the signal that netlist is probed on, its lock trial
    and its [i = f(v)] table. Every analysis op and experiment resolves
    its oscillator here, so [lockrange --validate], [transient] and
    [oshil experiments] simulate the same netlist the DF side models. *)

type injection = { n : int; vi : float; f_inj : float }

type flip = {
  pulse : at:float -> Spice.Device.t;
      (** a state-flip kick ({!Circuits.Parts.flip_pulse}) at [at] *)
  offsets : float * float;
      (** fractional-cycle offsets of Figs. 15/19's two kicks, tuned per
          cell so the deterministic simulation visits distinct states *)
}

type t = {
  tank : Shil.Tank.t;
  oscillator : unit -> Shil.Analysis.oscillator;
      (** the describing-function model; a device cell extracts its
          [f(v)] on each call *)
  circuit : ?extra:Spice.Device.t list -> injection option -> Spice.Circuit.t;
      (** the kicked transient netlist, with the injected tone, and
          [extra] devices (state-flip pulses) appended *)
  probe : Spice.Transient.probe;
  fv : unit -> float array * float array;  (** the [oshil dcsweep] table *)
  lock_trial : float * int;
      (** cycles and steps per cycle of one transient lock trial: 800 at
          600 steps for a behavioural cell, 600 at 180 for the
          diff-pair and 1500 at 180 for the tunnel diode *)
  flip : flip option;  (** the device cells' state-flip pulse *)
}

val behavioural : Shil.Analysis.oscillator -> t
(** The row of any behavioural oscillator: its {!Circuits.Behavioural}
    netlist, probe and step count, and an 800-cycle lock trial. *)

val of_spec : Request.osc_spec -> t
(** Builds only the named cell's row, and no [f(v)] extraction until
    [oscillator] or [fv] is called. Unknown names raise a typed
    [parse-failure]. *)

val validate :
  t -> n:int -> vi:float -> predicted:Shil.Lock_range.t ->
  Circuits.Validate.lock_cmp
(** The transient lock edges of the row's netlist injected at [(n, vi)]:
    {!Circuits.Validate.lock_range} bracketing [predicted], with the
    row's [lock_trial]. *)
