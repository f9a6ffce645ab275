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
  points : int;  (** quadrature points used per sample ([N_θ] on a torus grid) *)
  psi : int option;
      (** the [N_ψ] of the {!Describing_function.torus} tables the grid
          was filled from; [None] for the direct quadrature *)
  reduction : Describing_function.reduction;
      (** quadrature mode the grid was sampled with; downstream solvers
          ([Solutions], [Lock_range]) inherit it for their own
          describing-function probes *)
  failures : Resilience.Summary.t;
      (** rows that failed to evaluate (typed holes, NaN-filled in
          [i1]); clean grids have [Resilience.Summary.is_clean] *)
}

(* dsa: allow unused-export — test hook: the kernel tests pin the key layout and versions *)
val cache_key :
  ?psi:int -> reduction:Describing_function.reduction -> nl_key:string ->
  n:int -> r:float -> vi:float -> p_lo:float -> p_hi:float -> n_phi:int ->
  n_amp:int -> a_lo:float -> a_hi:float -> points:int -> unit -> Cache.Key.t
(** The content address of one grid evaluation (exposed for tests and
    tooling). [`Exact] keys are version 1 — unchanged since the scalar
    kernel, because the batch rewrite is bit-identical; [`Symmetry] keys
    are version 2 with a [red=sym] field. A torus grid ([?psi]) adds a
    trailing [psi] field, so it never shares a key with a direct grid. *)

val key_fields : t -> nl_key:string -> Cache.Key.field list
(** The {!cache_key} fields of this grid's inputs, reduction excluded
    and [psi] included — for results derived from a grid
    ([Lock_range]) that must be keyed on every input of it. *)

val versioned_key :
  ?exact:int -> kind:string -> reduction:Describing_function.reduction ->
  Cache.Key.field list -> Cache.Key.t
(** The key-versioning convention shared by every kind derived from the
    describing-function quadrature: [`Exact] is version [exact]
    (default 1), [`Symmetry] is version [exact + 1] with a trailing
    [red=sym] field. A kind whose computation changes raises [exact]
    by 2, so entries written before the change are not replayed. *)

val default_points : int
(** The grid's quadrature points per sample (512) when [?points] is
    omitted; also the cap [Analysis.run] applies to its chosen count. *)

val sample :
  ?points:int -> ?psi:int -> ?phi_range:float * float -> ?n_phi:int ->
  ?n_amp:int -> ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float -> a_range:float * float ->
  unit -> t
(** Defaults: [phi_range = (0, 2 pi)], [n_phi = 121], [n_amp = 101],
    [points = default_points], [reduction = `Exact]. [a_range] should
    bracket the expected lock amplitudes (e.g. 40%%–120%% of the natural
    amplitude); raises [Invalid_argument] on fewer than 2 samples per
    axis or a non-positive/empty [a_range].

    Without [?psi] every cell is a direct [points]-sample quadrature
    ([n_phi * n_amp * points] nonlinearity evaluations, 6.2 M at the
    defaults; half the rows and half the samples under [`Symmetry]
    where licensed). [Analysis.run] without [?points] passes
    [min N default_points], with [N] from
    {!Describing_function.choose_points}.

    [?psi] is the torus path, passed only by [Analysis.run] when the
    stated-error pilot accepted an [N_ψ]: each amplitude column comes
    from one {!Describing_function.torus} table with [N_θ = points]
    ([n_amp * (points/2 + 1) * (psi/2 + 1)] evaluations, 59 k at 128 x
    16 against 1.56 M direct), read at every phi through one phi-by-q
    cos/sin table. Its cells differ from the direct grid at the same
    [points] by the ψ-interpolation error the pilot bounded.

    [`Exact] direct grids are bit-identical to the historical scalar
    kernel. [~reduction:`Symmetry] direct grids are tolerance-grade: for
    an odd nonlinearity and odd [n] each row integrates half a period,
    and over the default symmetric [phi_range] only half the rows are
    computed — the rest are conjugate mirrors ([I1(2π−φ) = conj I1(φ)]).

    With [Cache.Store] on, clean grids are cached under {!cache_key} on
    the disk tier only ([~memory:false]): a tile is about 200 KB at the
    default size, and repeated analyses are served by the small
    [shil.lockrange] entries instead.

    A work item whose evaluation raises — a phi row on the direct path,
    an amplitude column on the torus path — becomes a NaN-filled typed
    hole in [failures] (counter [resilience.grid.holes]) instead of
    aborting the sweep — the contour extractors skip NaN cells — unless
    {!Resilience.Policy.set_fail_fast} is on. An expired deadline holes
    the items not yet started. Fault site [grid-point] (by computed
    item index) injects failures for testing; under [`Symmetry]
    mirroring, a failed source row also holes its mirror. *)

(* dsa: allow unused-export — test hook: the tests check the sampled field against eq. 3 cell by cell *)
val t_f_field : t -> float array array
(** [T_f(phi, A) - 1] (eq. 3 residual). *)

val interp_i1 : t -> phi:float -> a:float -> Numerics.Cx.t
(** Bilinear interpolation of the sampled [I_1]; clamped at the grid
    boundary. *)

val t_f_curve : t -> (float array * float array) list
(** The [C_{T_f,1}] polylines in the [(phi, A)] plane. *)

val phase_curve : t -> phi_d:float -> (float array * float array) list
(** The [C_{angle(-I_1), -phi_d}] polylines (spurious branch removed). *)
