(** Fundamental-harmonic injection locking: the [n = 1] special case
    (§III-B), plus Adler's classical lock-range estimate as a baseline.

    For FHIL the injection phasor adds directly at the oscillation
    frequency, so the generic SHIL machinery applies with [n = 1]; Adler's
    small-injection formula
    [delta_omega = omega_c / (2 Q) * V_i_total / A] (total single-sided
    half-range) is the widely used first-order baseline the rigorous
    method should reduce to for weak injection. *)

val adler_range : tank:Tank.t -> a:float -> vi:float -> float * float
(** [(f_low, f_high)] around the tank centre frequency. *)
