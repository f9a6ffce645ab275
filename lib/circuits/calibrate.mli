(** Calibration of the benchmark circuits to the paper's reported numbers.

    The paper prints measured amplitudes, centre frequencies and lock
    ranges but not its component values, so we solve for them: the tank
    [R] from the natural-amplitude target (the amplitude depends only on
    [R] and the nonlinearity), then the characteristic impedance
    [Z0 = sqrt(L/C)] from the lock-range target using the exact identity
    [delta_f_osc = f_c tan(phi_d_max) / Q] (with [Q = R / Z0] and
    [phi_d_max] independent of [L], [C]). *)

(* dsa: allow unused-export — test reference implementation: the calibration step behind the circuit defaults *)
val r_for_amplitude :
  ?r_lo:float -> ?r_hi:float -> nl:Shil.Nonlinearity.t -> target_a:float ->
  unit -> float
(** Solves [predicted_amplitude nl r = target_a] by bisection on
    [log r]. Raises [Failure] when the bracket does not contain a
    solution. *)

type tank_fit = { r : float; l : float; c : float; q : float; phi_d_max : float }

(* dsa: allow unused-export — test reference implementation: the calibration behind the circuit defaults *)
val fit_tank :
  ?points:int -> nl:Shil.Nonlinearity.t -> target_a:float -> f_c:float ->
  n:int -> vi:float -> target_delta_f_inj:float -> unit -> tank_fit
(** Full fit: [R] from amplitude, [phi_d_max] from one
    describing-function grid at that [R], then
    [Q = n f_c tan(phi_d_max) / target_delta_f_inj] and [L], [C] from
    [Z0 = R/Q] at centre [f_c]. *)
