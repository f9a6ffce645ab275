(** Shared §IV experiment drivers, parameterised over a benchmark circuit:
    both the diff-pair (§IV-A) and the tunnel-diode (§IV-B) sections run
    the same five experiments (f(v) extraction, natural-oscillation
    prediction + transient validation, SHIL lock-range prediction +
    simulated table, and the n-states demonstration). *)

type bench = {
  name : string;
  fc : float;  (** tank centre frequency *)
  natural_target : float;  (** the paper's reported amplitude *)
  oscillator : Shil.Analysis.oscillator;  (** extracted nl + tank *)
  fv_table : float array * float array;  (** raw extraction table *)
  circuit : unit -> Spice.Circuit.t;
  circuit_injected : f_inj:float -> Spice.Circuit.t;
  circuit_with_extra : extra:Spice.Device.t list -> Spice.Circuit.t;
      (** injected at the centre of the predicted band *)
  state_pulse : at:float -> Spice.Device.t;
  state_pulse_offsets : float * float;
      (** fractional-cycle offsets of the two state-flip kicks (tuned per
          circuit so the deterministic simulation visits distinct
          states) *)
  probe : Spice.Transient.probe;
  vi : float;
  n : int;
  lock_cycles : float;
      (** transient length per lock decision; long for high-Q tanks *)
  paper_table : (string * float) list;
      (** the paper's own table rows, for side-by-side printing *)
}

val diff_pair : unit -> bench
(** Builds the §IV-A bench on {!Circuits.Diff_pair.default} (extracts
    [f(v)] once via the MNA DC sweep: a few hundred operating-point
    solves). *)

val tunnel : unit -> bench
(** Builds the §IV-B bench on {!Circuits.Tunnel_osc.default}, with one
    [f(v)] extraction likewise. *)

val fig_fv : bench -> Output.t
(** Figs. 12a / 16b: the extracted [i = f(v)] curve. *)

val fig_natural_prediction : bench -> Output.t
(** Figs. 12b / 16c: [T_f(A) = 1] graphical prediction. *)

val fig_transient : bench -> Output.t
(** Figs. 13 / 17: start-up transient on the device netlist; measured
    steady amplitude and frequency (over 400 cycles) against the
    prediction. *)

val table_lock_range :
  ?predict_only:bool -> bench -> Output.t * Shil.Lock_range.t
(** Tables §IV-A / §IV-B: predicted vs simulated lock limits
    (simulation = binary search of transient lock edges, [lock_cycles]
    per trial; skipped when [predict_only]). Also returns the prediction
    for reuse. *)

val fig_lock_range_curves : bench -> Output.t
(** Figs. 14 / 18: the isoline picture at the calibrated [V_i]. *)

val fig_states : bench -> Output.t
(** Figs. 15 / 19: phase-flipping pulses move the oscillator between the
    [n] states; reports the relative phase in each of three 800-cycle
    inter-pulse windows. *)
