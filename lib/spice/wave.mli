(** Independent-source waveforms (the SPICE DC / SIN / PULSE / PWL set). *)

type t =
  | Dc of float
  | Sine of { offset : float; ampl : float; freq : float; phase : float; delay : float }
      (** [offset + ampl * sin (2 pi freq (t - delay) + phase)] for
          [t >= delay], [offset] before; [phase] in radians. *)
  | Pulse of {
      v1 : float;  (** initial value *)
      v2 : float;  (** pulsed value *)
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;  (** 0. or infinity = single pulse *)
    }
  | Pwl of (float * float) list
      (** Piecewise linear [(time, value)] points, strictly increasing in
          time; constant extrapolation outside. *)

val value : t -> float -> float
(** [value w t] evaluates the waveform at time [t]. *)

val dc_value : t -> float
(** Value used during DC analyses: the [t = 0] value except for [Sine],
    which contributes its offset. *)
