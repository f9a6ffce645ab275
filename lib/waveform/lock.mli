(** Injection-lock detection from transient waveforms.

    An oscillator is locked to [f_target] when the phase of its
    fundamental, measured against an ideal reference at [f_target], stops
    drifting: the residual phase slope corresponds to a frequency error
    far below the candidate/neighbour spacing. An unlocked (pulled)
    oscillator beats, showing a secular phase drift. *)

type verdict = {
  locked : bool;
  freq_measured : float;  (** zero-crossing frequency of the tail *)
  phase_drift : float;  (** rad/s residual slope against the reference *)
  phase_sigma : float;  (** rad, rms deviation of the phase profile *)
  amplitude : float;
}

val analyze :
  ?steady_fraction:float -> ?windows:int -> ?drift_tol:float ->
  Signal.t -> f_target:float -> verdict
(** [analyze s ~f_target] inspects the last [steady_fraction] (default
    0.5) of [s]. Locked iff the unwrapped phase-vs-reference profile over
    [windows] (default 16) spans has |slope| < [drift_tol] (default: the
    slope corresponding to a frequency error of 1e-4 of [f_target]) and
    the measured zero-crossing frequency is within 0.2%% of [f_target]. *)
