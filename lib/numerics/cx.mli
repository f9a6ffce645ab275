(** Helpers over the standard [Complex] type.

    Phasor conventions used throughout the project: a real waveform
    [x(t) = 2 * |X| * cos(w t + arg X)] is represented by the one-sided
    phasor [X], i.e. the Fourier-series coefficient of [exp(j w t)]. *)

type t = Complex.t = { re : float; im : float }

val zero : t
val make : float -> float -> t
val of_float : float -> t
val polar : float -> float -> t
(** [polar r theta] is the complex number with modulus [r] and argument
    [theta]. *)

val re : t -> float
val im : t -> float
val abs : t -> float
val arg : t -> float
val conj : t -> t
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val scale : float -> t -> t
val exp_j : float -> t
(** [exp_j theta] is [exp (j * theta)]. *)
