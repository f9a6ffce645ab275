(** Pieces the oscillator netlists share: the start-up kick, the
    state-flip pulse and the series injection source of the device
    cells, and the DC sweep that extracts a cross-coupled pair's
    differential [i = f(v)]. *)

val kick : fc:float -> float -> Spice.Wave.t
(** A current pulse of the given amplitude at [t = 0], a quarter of a
    tank period wide with edges of 5 %: the start-up kick every
    transient netlist carries. *)

val flip_pulse :
  name:string -> np:string -> nn:string -> fc:float -> charge:float ->
  at:float -> Spice.Device.t
(** The current source [name] from [np] to [nn] that delivers [charge]
    (C) at [t = at] in a pulse 0.3 tank periods wide with edges of a
    tenth of that: the kick that moves a locked oscillator between its
    [n] states (Figs. 15/19). *)

val series_injection : Shil.Simulate.injection option -> Spice.Wave.t
(** The series injection source [2 vi cos(2 pi f_inj t + phase)] — the
    literal [v_out + v_i] summing node of Figs. 4a/8a — or 0 V without
    an injection. *)

val differential_fv :
  pair:Spice.Device.t list -> supply:float -> left:string -> right:string ->
  v_span:float -> steps:int -> float array * float array
(** The Fig. 11b flow on the bare pair (no supply rail, which would
    dangle): drive [left] at [supply + v/2] and [right] at
    [supply - v/2] over [steps + 1] points of [v in [-v_span, v_span]],
    and read the differential port current [(i_left - i_right) / 2].
    The sweep runs outward from [v = 0] in both directions so the Newton
    continuation tracks the physical branch of the saturated devices. *)
