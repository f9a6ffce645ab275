(** A sampled real signal: paired time and value arrays of equal length,
    times strictly increasing. *)

type t = { times : float array; values : float array }

val make : times:float array -> values:float array -> t
(** Validates lengths and monotonicity. *)

val length : t -> int
val duration : t -> float

val slice : t -> t_min:float -> t_max:float -> t
(** Sub-signal with [t_min <= t <= t_max]; raises [Invalid_argument] when
    empty. *)

val tail_fraction : t -> float -> t
(** [tail_fraction s 0.3] keeps the last 30% of the time span — the usual
    "steady state" window. *)

(* dsa: allow unused-export — test hook: the tests sample transient waveforms at arbitrary times *)
val value_at : t -> float -> float
(** Linear interpolation; clamped at the ends. *)

val shift_values : t -> float -> t
(** Adds a constant to every value (DC removal). *)

val mean : t -> float
(** Time-weighted (trapezoid) mean. *)
