(** End-to-end validation drivers: the paper's §IV methodology.

    Each function compares a describing-function prediction against a
    brute-force MNA transient, on a device-level netlist or on the
    behavioural one ({!Behavioural}), returning a comparison record
    ready for the experiment tables. {!lock_range} is the transient band
    of the one lock-edge locator, {!Numerics.Roots.edge}. *)

val transient_signal :
  circuit:Spice.Circuit.t -> probe:Spice.Transient.probe -> dt:float ->
  t_stop:float -> Waveform.Signal.t
(** The [probe] waveform of a fixed-step transient from 0 to [t_stop].
    A degraded run (the transient's [failure]) raises its typed error
    rather than returning a truncated waveform. *)

type natural_cmp = {
  predicted_a : float;
  simulated_a : float;
  predicted_f : float;  (** tank centre frequency *)
  simulated_f : float;  (** zero-crossing frequency of the steady state *)
}

val natural :
  ?cycles:float -> ?steps_per_cycle:int -> circuit:Spice.Circuit.t ->
  probe:Spice.Transient.probe -> osc:Shil.Analysis.oscillator -> unit ->
  natural_cmp
(** Runs the free oscillator for [cycles] (default 400) tank periods at
    [steps_per_cycle] (default 120) and measures the steady tail. *)

val locked :
  ?cycles:float -> ?steps_per_cycle:int -> circuit:Spice.Circuit.t ->
  probe:Spice.Transient.probe -> n:int -> f_inj:float -> unit -> bool
(** One lock probe, the one {!lock_range} bisects with: runs the
    injected [circuit] for [cycles] (default 600) periods of [f_inj / n]
    at [steps_per_cycle] (default 180) and asks the lock detector
    whether the mean-free waveform follows [f_inj / n]. *)

type lock_cmp = {
  predicted : Shil.Lock_range.t;
  sim_f_low : float;  (** NaN when that edge search failed (see [failures]) *)
  sim_f_high : float;
  sim_delta : float;
  failures : Resilience.Summary.t;
      (** typed holes: failed transient probes (counted as unlocked)
          and failed edge searches *)
}

val lock_range :
  ?cycles:float -> ?steps_per_cycle:int -> ?rel_tol:float ->
  make_circuit:(f_inj:float -> Spice.Circuit.t) ->
  probe:Spice.Transient.probe -> n:int ->
  predicted:Shil.Lock_range.t -> unit -> lock_cmp
(** Binary search for both lock edges of the simulated oscillator (the
    paper's "binary search ... over different frequencies") on
    {!Numerics.Roots.edge}: one probe at the predicted centre, then each
    edge marches out through the predicted edge in steps of
    [max (delta_f_inj / 2) (20 tol)] and reports its bracket midpoint.
    [cycles] (default 600) oscillator periods per trial; [tol = rel_tol
    f_centre] (default 2e-5) stops the bisection.

    A failed probe (counted unlocked), an unbracketed edge, or both
    edges when the centre does not lock, becomes a typed hole in
    [failures] (counter [resilience.validate.holes]) unless
    {!Resilience.Policy.set_fail_fast} is on. A spent deadline raises
    [budget-exhausted]. Fault site [validate-point] fails probes. *)

val lock_states :
  ?cycles:float -> ?steps_per_cycle:int ->
  make_circuit:(extra:Spice.Device.t list -> Spice.Circuit.t) ->
  probe:Spice.Transient.probe -> n:int -> f_inj:float ->
  pulse:(at:float -> Spice.Device.t) -> pulse_times:float list -> unit ->
  float list
(** Runs the locked oscillator with state-flipping pulses at the given
    times (Figs. 15/19) and returns the steady relative phase (rad,
    against a [cos] reference at [f_inj / n]) measured in the window
    after each pulse (including the initial pulse-free window) — [n]
    distinct values spaced [2 pi / n] demonstrate the [n] states. *)

val pp_lock : Format.formatter -> lock_cmp -> unit
