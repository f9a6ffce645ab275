(** Fourier-series coefficients of periodic functions and sampled signals.

    Convention: for a real periodic signal [x(t)] of angular frequency [w],
    [coeff k] is the two-sided Fourier-series coefficient [X_k] in
    [x(t) = sum_k X_k exp(j k w t)], so the real waveform
    [2 |X_1| cos(w t + arg X_1)] is the fundamental component and
    [X_{-k} = conj X_k]. This is exactly the [I_k] of the paper (eq. 1). *)

(* dsa: allow unused-export — test reference implementation: the scalar quadrature the kernels are checked against *)
val coeff : ?n:int -> f:(float -> float) -> k:int -> unit -> Cx.t
(** [coeff ~f ~k ()] is the [k]-th Fourier coefficient of the 2π-periodic
    function [f] of phase [theta], computed with [n]-point (default 1024)
    periodic trapezoid quadrature:
    [X_k = 1/2π ∫ f(θ) exp(-j k θ) dθ]. *)

(* dsa: allow unused-export — test reference implementation: the reference HB solver's projection *)
val coeff_sampled : float array -> k:int -> Cx.t
(** [coeff_sampled x ~k] treats [x] as [n] uniform samples over exactly one
    period and returns [X_k]. *)

val of_time_series :
  t:float array -> x:float array -> freq:float -> k:int -> Cx.t
(** [of_time_series ~t ~x ~freq ~k] estimates the [k]-th coefficient of a
    (possibly non-uniformly sampled) signal assumed periodic with frequency
    [freq], by trapezoid integration of [x(t) exp(-j k 2π freq t)] over the
    span of [t], normalised by that span. The span should cover an integer
    number of periods for best accuracy. *)

(* dsa: allow unused-export — test reference implementation: synthesises HB spectra for the HB tests *)
val reconstruct : Cx.t array -> theta:float -> float
(** [reconstruct cs ~theta] evaluates the real series
    [X_0 + sum_{k>=1} 2 Re (X_k exp(j k θ))] where [cs.(k) = X_k]. *)
