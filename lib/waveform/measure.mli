(** Waveform measurements: crossings, frequency, amplitude, phasors. *)

(* dsa: allow unused-export — test hook: the crossing finder behind frequency is tested directly *)
val rising_crossings : ?level:float -> Signal.t -> float array
(** Times of rising crossings through [level] (default the signal's
    time-weighted mean), located by linear interpolation. *)

val frequency : ?level:float -> Signal.t -> float
(** Mean frequency from the first to the last rising crossing. Raises
    [Failure] with an explanatory message when fewer than two crossings
    exist (no oscillation). *)

val frequency_opt : ?level:float -> Signal.t -> float option

val amplitude : Signal.t -> float
(** Half the peak-to-peak excursion — the [A] of the paper's sinusoidal
    steady state. *)

val fundamental : Signal.t -> freq:float -> Numerics.Cx.t
(** One-sided phasor of the component at [freq]: the real waveform
    [2|X| cos(2 pi f t + arg X)] matches the signal's component. Uses an
    integer number of periods from the tail of the signal. Raises
    [Invalid_argument] when the signal is shorter than one period. *)

val phase_vs_reference : Signal.t -> freq:float -> windows:int -> float array
(** Splits the signal into [windows] equal spans and returns the phase (in
    radians, unwrapped) of the [freq] component in each — a locked
    oscillator shows a flat profile, an unlocked one a steady drift.
    Raises [Invalid_argument] if [windows < 1]. *)
