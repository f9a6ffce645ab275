(** Injection pulling: the quasi-lock regime just outside the lock range
    (the phenomenon of [5] in the paper; §I "IL and the related
    phenomenon of injection pulling").

    Outside the lock band the phase error obeys the Adler-type equation
    [dpsi/dt = delta - w_L sin psi] (with [delta] the detuning and [w_L]
    the half lock range, both in oscillator-referred rad/s), whose
    solutions slip cyclically with the classic beat frequency
    [w_beat = sqrt (delta^2 - w_L^2)]. The predicted SHIL lock range
    supplies [w_L], turning the lock-range analysis into a quantitative
    beat-note prediction. *)

val beat_frequency : lock_range:Lock_range.t -> n:int -> f_inj:float -> float
(** Predicted beat frequency (Hz, oscillator-referred) of the slipping
    phase for an injection at [f_inj] outside the band:
    [sqrt (delta^2 - w_L^2) / 2 pi] with [delta] measured from the band
    centre. Returns [0.] inside the band. *)

val measure_beat : Waveform.Signal.t -> n:int -> f_inj:float -> float
(** Brute-force counterpart: the mean phase-slip rate (Hz,
    oscillator-referred) of a simulated tank waveform of the oscillator
    injected at [f_inj], against the [f_inj / n] reference, fitted over
    the last 60 % of the waveform. *)
