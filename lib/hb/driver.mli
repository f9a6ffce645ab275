(** Analysis drivers over the harmonic-balance engine: autonomous
    oscillator solve (oscprobe), injected-tone SHIL solve, and the
    HB lock-range search.

    Results are cached under kind ["hb"] version 2 when the caller
    supplies [?ident] — a canonical string identifying the circuit (the
    API layer derives it from the resolved oscillator spec and the
    nonlinearity cache key). Cached values are Marshal round-trips of
    plain-data records, honouring the store's bit-identity contract;
    without [ident] (e.g. closures with no cache key) the drivers
    compute directly. *)

type solution = {
  f0 : float;  (** base (fundamental) frequency, Hz *)
  k_max : int;
  samples : int;
  nodes : string array;
  spectra : Numerics.Cx.t array array;  (** per node, [X_0 .. X_kmax] *)
  osc_node : int;  (** index of the reported oscillation node *)
  x : float array;  (** raw unknown vector (warm starts) *)
  iters : int;  (** Newton iterations of the converged attempt *)
  residual : float;  (** converged scaled residual *)
}

val amplitude : solution -> float
(** Fundamental amplitude [2 |X_1|] at the oscillation node. *)

val thd : solution -> float
(** Total harmonic distortion [sqrt (Σ_{k>=2} |X_k|²) / |X_1|]. *)

val oscprobe :
  ?ident:string ->
  ?k_max:int ->
  ?samples:int ->
  ?tol:float ->
  f_guess:float ->
  a_guess:float ->
  Spice.Circuit.t ->
  solution
(** Autonomous oscillator steady state: one {!Solve.solve} for the
    spectrum and the frequency, gauged at the first nonlinear device's
    node, where [X_1] comes out real. The seed is the fundamental
    [(a_guess / 2, 0)] at that node, all else zero, at [f_guess]
    (resonance frequency and a describing-function amplitude are good
    seeds).

    Raises typed errors: [Solver_divergence] when every Newton rung
    fails; [No_oscillation] when the circuit has no nonlinear device,
    or when the solve converges to the trivial orbit, i.e. to a
    fundamental amplitude [2 |X_1|] at the node below [1e-6 *
    |a_guess|] (every autonomous system has [X = 0] as a solution, and
    seeds well below the oscillation's amplitude can fall into it). *)

type verdict = {
  locked : bool;
  f_inj : float;
  n_sub : int;
  amp : float;  (** fundamental amplitude of the locked spectrum *)
  lock_phase : float;  (** [arg X_1] at the oscillation node, rad *)
  sol : solution;
}

val injected :
  ?ident:string ->
  ?tol:float ->
  free:solution ->
  n:int ->
  f_inj:float ->
  Spice.Circuit.t ->
  verdict
(** Injected-tone SHIL solve: the circuit (which must contain the
    injection source at [f_inj], landing on harmonic [n] of the base
    [f_inj / n]) is solved from the free-running spectrum [free] as
    warm start, with [free]'s [k_max]/[samples]. Locked iff Newton
    converges to a spectrum whose fundamental amplitude exceeds half
    the free-running amplitude; outside the lock range the oscillation
    collapses onto the injection-driven sub-space ([V_k = 0] off the
    harmonics of [n]). Raises [Solver_divergence] when every Newton
    rung fails. *)

val ppv : Spice.Circuit.t -> solution -> Numerics.Cx.t array array
(** Perturbation projection vector (Demir & Roychowdhury, IEEE TCAD
    2003) of a free-running solution, read off the harmonic-balance
    Jacobian. [circuit] must be the one [free] solves; it is compiled
    at [free]'s [k_max]/[samples] and evaluated at [2 pi free.f0]. The
    left null vector [w] of the Jacobian [J] comes from one bordered
    solve [[J^T u; c^T 0] [w; s] = [0; 1]], with [u] the phase-shift
    direction of the spectrum and [c = omega0 dR/d omega] (the
    oscprobe's frequency column, {!System.omega_column}), which
    normalises [<y, M x'> = 1].

    One row per MNA unknown: the nodes in [free.nodes] order, then the
    branch currents (inductors and voltage sources, device order). Row
    [i] holds [Y_0 .. Y_kmax] in the repo-wide convention
    [y(t) = Y_0 + sum_k 2 Re (Y_k e^{jk omega0 t})]; a current [b(t)]
    injected into node [i] shifts the phase at the rate [<y_i, b>].
    Raises a typed [Singular_system] when the bordered system is
    singular (a solution that is not an isolated oscillation). *)

type band = {
  n_band : int;
  f_center : float;  (** injection-referred band center, [n * f0] *)
  f_lo : float;  (** innermost-locked band edges, injection-referred *)
  f_hi : float;
  probes : int;
  holes : int;  (** probes that failed on every rung (typed holes) *)
}

val lock_range :
  ?ident:string ->
  ?tol:float ->
  free:solution ->
  n:int ->
  guess_width:float ->
  inject:(f_inj:float -> Spice.Circuit.t) ->
  unit ->
  band
(** HB lock range: march outward from the band center [n * free.f0]
    in 1.5x steps of [guess_width / 2] until unlocked, then bisect
    each edge ({!Numerics.Roots.edge}). Probes are warm-started from
    the innermost locked spectrum; a probe whose warm solve fails is
    retried cold, and only a probe failing both becomes a typed hole —
    counted in [holes], classified unlocked so the band only shrinks
    (unless fail-fast is on). Raises [No_oscillation] if the center
    frequency does not lock, and [budget-exhausted] on a spent
    deadline. *)
