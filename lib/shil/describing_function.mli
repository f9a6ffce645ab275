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
(** Quadrature points per period (1024). Spectral accuracy: doubling the
    count is only needed for extremely sharp nonlinearities. *)

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

val ik :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> a:float -> k:int ->
  Numerics.Cx.t
(** Single-tone [k]-th coefficient. *)

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

val ik_two_tone :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> a:float ->
  vi:float -> phi:float -> k:int -> Numerics.Cx.t

val t_f_free :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> r:float -> a:float ->
  float
(** Free-running loop gain (eq. 2): [T_f(A) = -R I_1(A) / (A/2)].
    [A > 0]. *)

val t_f :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> r:float ->
  a:float -> vi:float -> phi:float -> float
(** Injected loop gain (eq. 3):
    [T_f(A,V_i,phi) = -R Re(I_1(A,V_i,phi)) / (A/2)]. *)

val t_cap_f :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> r:float ->
  a:float -> vi:float -> phi:float -> phi_d:float -> float
(** The magnitude form (eq. 5):
    [T_F = |R I_1 cos(phi_d) / (A/2)|]. *)

val arg_minus_i1 :
  ?points:int -> ?reduction:reduction -> Nonlinearity.t -> n:int -> a:float ->
  vi:float -> phi:float -> float
(** [angle (-I_1(A, V_i, phi))], the left side of eq. 4. *)
