(** Harmonic-domain compilation of a {!Spice.Circuit}.

    The multi-harmonic twin of {!Spice.Mna}: a circuit is compiled once
    into per-harmonic unknowns — node voltages followed by branch
    currents (voltage sources and inductors, device order), each
    carrying [2 k_max + 1] real slots — and then assembled at a base
    angular frequency into the constant linear stamp matrix plus source
    vector. Nonlinear devices are evaluated in the time domain on a
    uniform [samples]-point grid and folded back through the shared
    {!Numerics.Trig_tables} / {!Numerics.Kernel} quadrature machinery,
    with analytic conversion-matrix Jacobian blocks (Toeplitz in the
    conductance spectrum).

    Unknown layout: for MNA unknown [i] and harmonic slot [h],
    [idx t i h = i * (2 k_max + 1) + h] where [h = 0] is DC,
    [h = 2k - 1] is [Re V_k] and [h = 2k] is [Im V_k]. The spectral
    convention is the repo-wide one ({!Numerics.Fourier}):
    [x(θ) = X_0 + Σ_{k>=1} 2 Re (X_k e^{jkθ})].

    Supported devices: R, L, C, V/I sources (DC, commensurate [Sine];
    [Pulse]/[Pwl] contribute their DC value only), diodes, tunnel
    diodes and behavioural [Nonlinear_cs]. BJT and MOSFET devices raise
    a typed [Parse_failure] — use transient analysis for those. *)

type t

val compile : ?k_max:int -> ?samples:int -> Spice.Circuit.t -> t
(** [compile circuit] builds the harmonic system. [k_max] (default 7)
    is the highest retained harmonic; [samples] (default 1024) the
    time-domain quadrature points, required [>= 4 k_max]. Raises a
    typed {!Resilience.Oshil_error} on unsupported devices;
    [Invalid_argument] if [k_max < 1] or [samples] is too small. *)

val k_max : t -> int
val samples : t -> int
val size : t -> int
(** Total real unknowns: [(n_nodes + n_branches) * (2 k_max + 1)]. *)

val idx : t -> int -> int -> int
(** [idx t i h] — flat index of MNA unknown [i], harmonic slot [h]. *)

val node_names : t -> string array
(** Non-ground node names, sorted (same order as {!Spice.Mna}). *)

val osc_node : t -> int option
(** The natural oscillation node: the first non-ground terminal of the
    first nonlinear device, if any. *)

type assembled
(** The system frozen at a base frequency: linear stamps and source
    spectra are precomputed; only nonlinear devices are re-evaluated
    per Newton iteration. *)

val assemble : t -> omega0:float -> assembled
(** Raises a typed [Parse_failure] if a [Sine] source frequency is not
    a harmonic of [omega0] within 1e-6 relative, or exceeds [k_max];
    [Invalid_argument] if [omega0 <= 0]. *)

val system : assembled -> t

val omega0 : assembled -> float
(** The base angular frequency the system was assembled at. *)

val eval : assembled -> x:float array -> jac:Numerics.Linalg.mat -> res:float array -> unit
(** Fill rows/columns [0 .. size-1] of [jac] and [res] with the
    spectral Jacobian and residual at [x]. [x], [jac] and [res] may be
    larger (a bordered system); the extra rows and columns are left
    untouched. *)

val omega_column : t -> x:float array -> float array
(** [dR/d omega] at [x] (length [size]; [x] may be longer). The
    capacitor and inductor stamps are the only part of the residual
    that depends on the base frequency, and they depend on it
    linearly, so this is exactly those stamps at unit frequency times
    [x]: no second evaluation of the nonlinear devices. The partial
    application [omega_column t] stamps them once. *)

val spectra : t -> x:float array -> Numerics.Cx.t array array
(** Per-node harmonic coefficients [X_0 .. X_{k_max}] of a solution
    vector (nodes in {!node_names} order). *)
