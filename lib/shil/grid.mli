(** Sampled describing-function field over the [(phi, A)] plane.

    This is the object the graphical procedure draws on: the complex
    [I_1(A, V_i, phi)] is evaluated once on a rectilinear grid, after
    which every curve the paper plots — [C_{T_f,1}], [C_{T_F,1}] and the
    isolines of [angle(-I_1)] — is a contour of a derived scalar field.
    Critically the grid does NOT depend on the operating frequency
    [omega_i], so a lock-range sweep reuses one grid (§III-C's
    "invariance of [C_{T_f,1}]"). *)

type t = {
  nl : Nonlinearity.t;
  n : int;  (** sub-harmonic order *)
  r : float;  (** tank resistance *)
  vi : float;  (** injection phasor magnitude *)
  phis : float array;
  amps : float array;
  phi_range : float * float;  (** the [phi_range] [phis] was spaced over *)
  a_range : float * float;  (** the [a_range] [amps] was spaced over *)
  i1 : Numerics.Cx.t array array;  (** [i1.(i).(j)] at [(phis.(i), amps.(j))] *)
  points : int;  (** quadrature points used per sample *)
  reduction : Describing_function.reduction;
      (** quadrature mode the grid was sampled with; downstream solvers
          ([Solutions], [Lock_range]) inherit it for their own
          describing-function probes *)
  failures : Resilience.Summary.t;
      (** rows that failed to evaluate (typed holes, NaN-filled in
          [i1]); clean grids have [Resilience.Summary.is_clean] *)
}

val cache_key :
  reduction:Describing_function.reduction -> nl_key:string -> n:int ->
  r:float -> vi:float -> p_lo:float -> p_hi:float -> n_phi:int -> n_amp:int ->
  a_lo:float -> a_hi:float -> points:int -> Cache.Key.t
(** The content address of one grid evaluation (exposed for tests and
    tooling). [`Exact] keys are version 1 — unchanged since the scalar
    kernel, because the batch rewrite is bit-identical; [`Symmetry] keys
    are version 2 with a [red=sym] field. *)

val key_fields : t -> nl_key:string -> Cache.Key.field list
(** The {!cache_key} fields of this grid's inputs, reduction excluded —
    for results derived from a grid ([Lock_range]) that must be keyed on
    every input of it. *)

val versioned_key :
  kind:string -> reduction:Describing_function.reduction ->
  Cache.Key.field list -> Cache.Key.t
(** The key-versioning convention shared by every kind derived from the
    describing-function quadrature: [`Exact] is version 1, [`Symmetry]
    is version 2 with a trailing [red=sym] field. *)

val sample :
  ?points:int -> ?phi_range:float * float -> ?n_phi:int -> ?n_amp:int ->
  ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float -> a_range:float * float ->
  unit -> t
(** Defaults: [phi_range = (0, 2 pi)], [n_phi = 121], [n_amp = 101],
    [points = 512], [reduction = `Exact]. [a_range] should bracket the
    expected lock amplitudes (e.g. 40%%–120%% of the natural amplitude);
    raises [Invalid_argument] on fewer than 2 samples per axis or a
    non-positive/empty [a_range].

    [`Exact] grids are bit-identical to the historical scalar kernel.
    [~reduction:`Symmetry] grids are tolerance-grade: for an odd
    nonlinearity and odd [n] each row integrates half a period, and over
    the default symmetric [phi_range] only half the rows are computed —
    the rest are conjugate mirrors ([I1(2π−φ) = conj I1(φ)]).

    With [Cache.Store] on, clean grids are cached under {!cache_key} on
    the disk tier only ([~memory:false]): a tile is about 200 KB at the
    default size, and repeated analyses are served by the small
    [shil.lockrange] entries instead.

    A row whose evaluation raises becomes a NaN-filled typed hole in
    [failures] (counter [resilience.grid.holes]) instead of aborting
    the sweep — the contour extractors skip NaN cells — unless
    {!Resilience.Policy.set_fail_fast} is on. Fault site [grid-point]
    (by computed-row index) injects row failures for testing; under
    [`Symmetry] mirroring, a failed source row also holes its mirror. *)

val t_f_field : t -> float array array
(** [T_f(phi, A) - 1] (eq. 3 residual). *)

val phase_field : t -> phi_d:float -> float array array
(** [sin(angle(-I_1) + phi_d)] — zero on the eq. 4 curve; pair with
    {!phase_cos_ok} to discard the [cos <= 0] branch. *)

val arg_minus_i1_field : t -> float array array

val phase_cos_ok : t -> phi_d:float -> float * float -> bool
(** Midpoint predicate for {!Contour.filter_segments}: true when
    [cos(angle(-I_1) + phi_d) > 0] at the (bilinearly interpolated) grid
    point. *)

val interp_i1 : t -> phi:float -> a:float -> Numerics.Cx.t
(** Bilinear interpolation of the sampled [I_1]; clamped at the grid
    boundary. *)

val t_f_curve : t -> (float array * float array) list
(** The [C_{T_f,1}] polylines in the [(phi, A)] plane. *)

val phase_curve : t -> phi_d:float -> (float array * float array) list
(** The [C_{angle(-I_1), -phi_d}] polylines (spurious branch removed). *)
