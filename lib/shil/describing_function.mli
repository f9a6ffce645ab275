(** Describing functions: Fourier coefficients of a nonlinearity driven by
    one or two tones — the computational heart of the paper.

    Conventions (paper eq. 1): for input [x(theta)] with fundamental
    period [2 pi] in [theta = w_i t], the current [i = f(x)] has series
    [i = sum_k I_k exp(j k theta)]. A single tone [A cos theta] makes
    every [I_k] real; the two-tone SHIL input
    [A cos theta + 2 V_i cos (n theta + phi)] makes [I_1] complex and a
    function of [(A, V_i, phi)].

    Argument domains: [n >= 1] and, for the time-domain maps below,
    [a > 0]; violations raise [Invalid_argument]. *)

val default_points : int
(** Quadrature points per period (1024) for a caller that passes no
    [?points], and the cap of {!choose_points}. Its accuracy depends on the
    nonlinearity: a 4096-point reference puts the analytic tanh and
    tunnel cells at ~1e-14 relative I1 error already at 128 points, and
    the PCHIP diff-pair table at 3.4e-6 at 1024 points (algebraic, not
    spectral, convergence). {!choose_points} measures it per analysis. *)

type reduction = [ `Exact | `Symmetry ]
(** Quadrature mode. [`Exact] (the default everywhere) evaluates the
    full period with bit-identical batch kernels — results are
    unchanged from the scalar implementation. [`Symmetry]
    exploits the odd-[f] half-period identity (for odd [f], odd [n] and
    odd harmonic [k], the projected integrand is π-periodic, so half the
    samples suffice) and synthesizes the injection tone from trig tables
    with tolerance-grade (not bit-identical) nonlinearity batches;
    results agree with [`Exact] to quadrature accuracy, and the
    analyses built on them ([Grid], [Lock_range]) are cached under a
    bumped key version. Single coefficients are never cached: a solver
    touches hundreds of distinct ones per request, so the cache holds
    whole analyses instead. When the preconditions do not hold
    ([Nonlinearity.odd] is false, even [n] or [k], odd [points]) the
    point count silently stays at the full period. *)

val i1 : ?points:int -> ?reduction:reduction -> Nonlinearity.t -> a:float -> float
(** Single-tone fundamental coefficient [I_1(A)] — real by symmetry
    (footnote 3 of the paper). *)

(* dsa: allow unused-export — test reference implementation: the scalar closure the batch kernels are checked against *)
val two_tone_input :
  Nonlinearity.t -> n:int -> a:float -> vi:float -> phi:float -> float -> float
(** The scalar per-θ evaluation
    [f (A cos θ + 2 V_i cos (n θ + phi))] — the historical reference
    closure, kept public so equivalence tests can pit the batch kernels
    against it via {!Numerics.Fourier.coeff}. *)

val i1_two_tone :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> a:float ->
  vi:float -> phi:float -> Numerics.Cx.t
(** [I_1(A, V_i, phi)] for the input
    [A cos theta + 2 V_i cos (n theta + phi)] (Fig. 8). [n >= 1]. *)

type jacobian = {
  i1 : Numerics.Cx.t;  (** the bits {!i1_two_tone} returns *)
  d_a : Numerics.Cx.t;  (** [∂I_1/∂A] *)
  d_phi : Numerics.Cx.t;  (** [∂I_1/∂phi] *)
}

val i1_jacobian :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> a:float ->
  vi:float -> phi:float -> jacobian
(** [I_1] and its derivatives from one pass over {!i1_two_tone}'s
    samples: the projections of [f'(v) cos theta] and
    [-2 V_i f'(v) sin (n theta + phi)] ([Nonlinearity.deriv]),
    halved with [I_1] under [`Symmetry]. Counted as
    [shil.df.jac_evals], not [shil.df.i1_evals]. *)

val ik_two_tone :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> a:float ->
  vi:float -> phi:float -> k:int -> Numerics.Cx.t

val t_f_free :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> r:float -> a:float ->
  float
(** Free-running loop gain (eq. 2): [T_f(A) = -R I_1(A) / (A/2)].
    [A > 0]. *)

(* dsa: allow unused-export — test reference implementation: eq. 3, which the grid field is checked against *)
val t_f :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> r:float ->
  a:float -> vi:float -> phi:float -> float
(** Injected loop gain (eq. 3):
    [T_f(A,V_i,phi) = -R Re(I_1(A,V_i,phi)) / (A/2)]. *)

(** {1 The two-tone torus}

    [g(θ, ψ) = f(A cos θ + 2 V_i cos ψ)] has real 2-D Fourier
    coefficients [G_{p,q}] (g is even in both angles), and on the line
    [ψ = nθ + φ] the fundamental is [I_1(φ) = Σ_q G_{1−nq,q} e^{iqφ}]:
    one table per [(A, V_i)] serves every [φ]. Built from
    [N_θ]-point θ sums, the table reproduces the direct [N_θ]-point
    quadrature of the trigonometric interpolant of [g] in [ψ], so its
    only error against {!i1_two_tone} at [N_θ] points is that
    interpolation error, geometric in [N_ψ] for an analytic [f]. *)

type torus
(** One amplitude's table, reduced to the [q = 0 .. N_ψ/2] terms of
    the [I_1(φ)] series. *)

val torus :
  ?reduction:reduction -> n_theta:int -> n_psi:int -> Nonlinearity.t ->
  n:int -> a:float -> vi:float -> torus
(** The table at amplitude [a] from {!torus_evals} nonlinearity
    evaluations on the half-range samples. [`Symmetry] evaluates them
    with the tolerance-grade batch. Raises [Invalid_argument] unless
    [n >= 1] and both counts are even and [>= 2]. *)

val torus_evals : n_theta:int -> n_psi:int -> int
(** Nonlinearity evaluations per {!torus}:
    [(N_θ/2 + 1) (N_ψ/2 + 1)]. *)

val torus_phases :
  n_psi:int -> float array -> float array array * float array array
(** [torus_phases ~n_psi phis] is the pair of per-[φ] tables
    [cos (q φ)] and [sin (q φ)], [q = 0 .. N_ψ/2]: built once per set
    of phases, they turn {!torus_i1} into two dot products. *)

val torus_i1 : torus -> cos_q:float array -> sin_q:float array -> Numerics.Cx.t
(** [I_1] at the phase whose {!torus_phases} rows are [cos_q]/[sin_q]. *)

(** {1 Quadrature by stated error} *)

type points_choice = {
  points : int;  (** the chosen point count [N] *)
  estimate : float;
      (** the stated error at [N]: the largest
          [|I_1(N) - I_1(N/2)| / |I_1(N)|] over the pilot set *)
  psi : int option;
      (** the [N_ψ] of the grid's {!torus} table; [None] when the
          doubling stalled or no count up to the cap (64) met the
          tolerance, and the grid is sampled directly *)
  psi_estimate : float;
      (** the torus pilot's largest relative difference from the direct
          [N]-point pilot, at [psi] or, on the fallback, at the last
          [N_ψ] tried *)
}

val stated_points : tol:float -> (int -> Numerics.Cx.t array) -> int * float
(** [stated_points ~tol pilot] is the doubling behind {!choose_points}:
    the first [N] in [128, 256, ...] whose largest relative change of
    [pilot N] from [pilot (N/2)] is [<= tol], with that change, or
    {!default_points} (the cap) with its larger one. *)

val choose_points :
  ?reduction:reduction -> grid_cap:int -> tol:float -> Nonlinearity.t ->
  n:int -> vi:float -> a_range:float * float -> points_choice
(** The quadrature point count for one analysis, chosen from a stated
    error estimate. The pilot evaluates {!i1_two_tone} at
    [A] in [{a_lo, (a_lo + a_hi)/2, a_hi}] x [phi] in
    [{0, pi/2, pi, 3 pi/2}] with {!stated_points}. A smooth
    nonlinearity converges geometrically, so the change from [N/2] to
    [N] bounds the error left at [N].

    It then sizes the grid's torus table at [N_θ = min N grid_cap]:
    [N_ψ] doubles from 8 until the torus [I_1] at the same pilot points
    is within [tol] (relative) of the direct [N]-point pilot. [psi] is
    [None] past the cap of 64, and as soon as a doubling cuts that
    difference less than tenfold: the torus error of an analytic
    nonlinearity falls geometrically in [N_ψ], a stalled one (a
    PCHIP table's) no longer bounds the grid's error.

    The chosen [N] is sampled into the [shil.quad.points] histogram and
    an accepted [N_ψ] into [shil.quad.psi]. *)
