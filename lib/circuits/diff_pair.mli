(** Cross-coupled BJT differential-pair LC oscillator (paper §IV-A,
    Fig. 11a) and its [i = f(v)] extraction circuit (Fig. 11b).

    Topology: NPN pair with bases cross-coupled to the opposite
    collectors, emitters to a tail current sink, and the tank across the
    collectors as two [L/2] halves centre-tapped at VCC plus parallel
    [R] and [C]. Injection is a series voltage source between the tank
    and the nonlinear one-port — the literal [v_out + v_i] summing node
    of Figs. 4a/8a. The oscillation is the differential collector voltage
    [v(ncl) - v(ncr)]. *)

type params = {
  vcc : float;
  iee : float;  (** tail current, A *)
  bjt : Spice.Device.bjt_params;
  r : float;  (** differential tank resistance *)
  l : float;  (** total differential inductance (two L/2 halves) *)
  c : float;
  kick : float;  (** start-up pulse current, A *)
}

val default : params
(** Calibrated so the describing-function prediction of the natural
    amplitude is the paper's [A = 0.505 V] at the paper's centre
    frequency 0.5033 MHz, and the tank [Q] reproduces the paper's
    3rd-harmonic lock range [~0.0176 MHz] at [|V_i| = 0.03 V] (the paper
    does not print its R/L/C; see DESIGN.md §3). *)

(* dsa: allow unused-export — test reference implementation: the paper's centre frequency *)
val fc_paper : float
(** 0.5033 MHz: [1/(2 pi sqrt(100 uH * 1 nF))], the paper's diff-pair
    oscillation frequency. *)

val extraction_fv : ?v_span:float -> ?steps:int -> params -> float array * float array
(** The Fig. 11b flow on our MNA simulator: drive [v(ncl) = VCC + v/2],
    [v(ncr) = VCC - v/2] and read the differential port current
    [i = (i_ncl - i_ncr) / 2] over [v in [-v_span, v_span]] (default
    0.85 V — beyond that the ideal Ebers-Moll base-collector junction
    conducts unphysical kiloamps; 241 points). Returns [(v, i)]
    arrays. *)

val nonlinearity_of_fv : float array * float array -> Shil.Nonlinearity.t
(** PCHIP interpolation of an {!extraction_fv} table. *)

val tank : params -> Shil.Tank.t

val oscillator : params -> Shil.Analysis.oscillator
(** [nonlinearity_of_fv (extraction_fv p)] on {!tank}: one extraction
    per call. *)

val circuit :
  ?injection:Shil.Simulate.injection -> ?extra:Spice.Device.t list -> params ->
  Spice.Circuit.t
(** Oscillator netlist. The injection voltage source carries
    [2 vi cos(2 pi f_inj t + phase)]; [extra] appends devices (e.g.
    state-flipping pulse sources across [tl]-[ncr]). Probe the
    oscillation as [Diff ("ncl", "ncr")] (or the tank as
    [Diff ("tl", "ncr")]). *)

val osc_probe : Spice.Transient.probe
