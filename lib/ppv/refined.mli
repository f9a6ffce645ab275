(** Orbit-corrected lock-range prediction: an extension combining the
    paper's graphical method with the exact free-running frequency.

    The describing-function analysis assumes the oscillator free-runs at
    the tank centre frequency [f_c]; harmonic currents detune the real
    oscillation to [f_0 != f_c] (Groszkowski). The lock band's WIDTH is
    predicted accurately either way, but its CENTRE tracks [f_0]. This
    module computes [f_0] from the periodic orbit (shooting) and rescales
    the predicted band by [f_0 / f_c] — for asymmetric cells this removes
    nearly all of the residual error against brute-force simulation (see
    the A2 ablation, [Experiments.Asym_ablation]). *)

val free_running_frequency :
  ?settle_periods:float -> Shil.Nonlinearity.t -> tank:Shil.Tank.t -> float
(** Exact free-running frequency of the reduced model, from the shooting
    orbit. *)

val recenter : Shil.Lock_range.t -> f0:float -> tank:Shil.Tank.t -> Shil.Lock_range.t
(** Scales all band edges by [f0 /. f_c tank]. *)

val lock_range :
  ?points:int -> Shil.Nonlinearity.t -> tank:Shil.Tank.t -> n:int ->
  vi:float -> Shil.Lock_range.t
(** Plain graphical prediction ({!Shil.Lock_range.predict}) recentred at
    the orbit frequency. *)
