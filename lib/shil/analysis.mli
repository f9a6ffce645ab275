(** One-call convenience layer: a complete SHIL study of an oscillator
    described by a nonlinearity and a tank. *)

type oscillator = {
  nl : Nonlinearity.t;
  tank : Tank.t;
}

type shil_report = {
  osc : oscillator;
  n : int;
  vi : float;
  natural : Natural.solution list;
  natural_amplitude : float option;  (** largest stable natural amplitude *)
  grid : Grid.t;
  locks_at_center : Solutions.point list;  (** at [omega_i = omega_c] *)
  lock_range : Lock_range.t;
  injection_harmonic : Numerics.Cx.t option;
      (** [I_n(A, V_i, 0)] at the amplitude of the first stable
          centre-frequency lock (or the natural amplitude when none is
          stable): how much of the injected tone the nonlinearity
          regenerates. [None] when no reference amplitude exists. *)
  quadrature : Describing_function.points_choice option;
      (** the quadrature point count [N] chosen for this analysis and
          its stated error; [None] when the caller fixed [?points] *)
}

val run :
  ?check:Check.Diagnostic.gate_mode -> ?points:int -> ?n_phi:int ->
  ?n_amp:int -> ?a_range:float * float ->
  ?reduction:Describing_function.reduction -> oscillator -> n:int ->
  vi:float -> shil_report
(** Natural-oscillation solve, describing-function grid around the
    natural amplitude (default [a_range] = 25%%–125%% of it), lock points
    at centre frequency, and lock range. [?reduction] selects the
    quadrature mode for the grid and every downstream solve (default
    [`Exact]; see {!Describing_function.reduction}).

    Quadrature points: an explicit [?points] is used everywhere (natural
    solve, grid, refinement, classification, injection harmonic), the
    grid is the direct one, and [quadrature] is [None]. Without it,
    every count comes from a stated error with
    [tol = Lock_range.default_tol / 10] (1e-6): a relative [I_1] error
    [delta] moves the eq. 4 phase by about [delta] rad, so that
    tolerance stays an order below the 1e-5 edge bisection.
    - The natural solve is {!Natural.solve_within}: brackets at 128
      points, refinement at the count its bracket-end pilot accepts
      (128 for tanh and the tunnel diode; the 1024 cap for the
      diff-pair, whose root is then bit-identical to {!Natural.solve}'s).
    - [N] comes from {!Describing_function.choose_points} over the
      analysis box, capped at {!Describing_function.default_points};
      every later solve, and {!locks_at}, uses [N].
    - The grid runs at [min N Grid.default_points] and, when the same
      pilot accepts a torus count [N_ψ <= 64], from
      {!Describing_function.torus} tables (see {!Grid.sample}); else
      from direct sums.
    Measured on the 72 paper cells: [N = 128] for tanh and the tunnel
    diode (256 at [n = 5], [V_i = 0.08]) with [N_ψ] of 8 to 32, and the
    1024 cap for the diff-pair, whose PCHIP curve is only C{^1}: its
    torus pilot stalls and its grid stays direct.
    Every printed report is byte-identical to the fixed 512/1024
    counts: the grid only seeds the Newton refinement at [N].

    The configuration first passes a static pre-flight (tank, order,
    injection, grid geometry and pointwise probes of the nonlinearity,
    see [Check.Shil]) under the [?check] gate policy (default
    [`Enforce]): errors raise [Check.Diagnostic.Failed],
    warnings go to the [oshil.shil] log source; [`Warn] never raises and
    [`Off] skips the analysis. Raises [Failure] when the oscillator does
    not oscillate (no stable [T_f = 1] solution) and no [a_range]
    override is supplied. *)

val locks_at :
  ?points:int -> shil_report -> f_inj:float -> Solutions.point list
(** Lock points when the injection frequency is [f_inj] (Hz); the
    oscillator then runs at [f_inj / n] and the tank phase adjusts
    accordingly. [?points] defaults to the report's chosen
    [quadrature] count, or {!Describing_function.default_points} when
    the report was run with a fixed [?points]. *)

val pp : Format.formatter -> shil_report -> unit
