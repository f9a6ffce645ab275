(** Descriptive statistics over float arrays (non-empty unless noted;
    an empty array — or a [linear_fit] length mismatch — raises
    [Invalid_argument]). *)

val stddev : float array -> float
(** Population standard deviation (divides by [n]). *)

val min_max : float array -> float * float

val linear_fit : xs:float array -> ys:float array -> float * float
(** Least-squares line [(slope, intercept)]; used for detecting phase drift
    (an unlocked oscillator has a linearly growing phase error). *)
