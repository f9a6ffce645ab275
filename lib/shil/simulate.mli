(** The injected tone of the oscillator of Fig. 1b: its description and
    the drive current that realises it. The time-domain runs themselves
    are MNA transients of the behavioural netlist
    ([Circuits.Behavioural]). *)

type injection = {
  vi : float;  (** target injection phasor magnitude at the tank output *)
  n : int;  (** harmonic order: drive frequency is [n * f_inj_osc] *)
  f_inj : float;  (** injection frequency (the [n omega_i] tone), Hz *)
  phase : float;  (** drive phase, rad *)
}

val injection_current : tank:Tank.t -> injection -> float
(** Drive current amplitude [I_m] such that the tank alone would show a
    [2 vi] voltage swing at the injection frequency:
    [I_m = 2 vi / |H(j 2 pi f_inj)|]. *)
