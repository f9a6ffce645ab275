(** Angle arithmetic: wrapping and unwrapping.

    All angles are in radians unless a function name says otherwise. *)

val two_pi : float

val wrap_pi : float -> float
(** [wrap_pi a] maps [a] into [(-pi, pi]]. *)

val wrap_two_pi : float -> float
(** [wrap_two_pi a] maps [a] into [[0, 2*pi)]. *)

val unwrap : float array -> float array
(** [unwrap a] removes jumps larger than [pi] between consecutive samples by
    adding multiples of [2*pi], as MATLAB's [unwrap]. The input is not
    modified. *)

val dist : float -> float -> float
(** [dist a b] is the absolute angular distance between [a] and [b], wrapped
    into [[0, pi]]. *)
