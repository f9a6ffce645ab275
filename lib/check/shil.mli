(** Pre-flight validation of a SHIL describing-function analysis.

    Operates on raw tank/injection/grid parameters (not on the typed
    [Shil.Tank.t]) so a bad configuration is rejected with a located
    diagnostic instead of an [Invalid_argument] from a constructor.

    Diagnostic codes emitted here:

    - [tank-nonpositive] (error): R, L or C not finite or <= 0
    - [tank-low-q] (warning): Q below the filter-hypothesis regime
    - [order] (error when n < 1, warning when absurdly high)
    - [inj-negative] (error): |Vi| negative or not finite
    - [inj-zero] (warning): |Vi| = 0 degenerates to the free oscillator
    - [grid-range] / [grid-size] (error), [grid-coarse] (warning)
    - [nl-nonfinite] (error): the nonlinearity probe returned NaN/inf
    - [nl-offset] / [nl-passive] (warning), [nl-asymmetric] /
      [nl-nonmonotone] (info): physics sanity probes of [i = f(v)] *)

type config = {
  r : float;  (** tank resistance, Ohm *)
  l : float;  (** tank inductance, H *)
  c : float;  (** tank capacitance, F *)
  n : int;  (** sub-harmonic order *)
  vi : float;  (** injection phasor magnitude, V *)
  a_range : (float * float) option;  (** amplitude grid bounds *)
  n_phi : int option;
  n_amp : int option;
  points : int option;  (** quadrature points per sample *)
}

val config :
  ?a_range:float * float -> ?n_phi:int -> ?n_amp:int -> ?points:int ->
  r:float -> l:float -> c:float -> n:int -> vi:float -> unit -> config

val check :
  ?nl:(float -> float) -> ?v_scale:float -> config -> Diagnostic.t list
(** Tank well-posedness, order and injection sanity and grid geometry
    for one configuration; with [nl], also probes [f] on
    [[-v_scale, v_scale]] (default 1 V): finiteness, [f(0) ~ 0],
    negative small-signal conductance, odd symmetry and monotonicity.
    Exceptions raised by [f] are treated as non-finite samples, never
    propagated. *)
