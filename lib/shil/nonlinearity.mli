(** Memoryless nonlinearities [i = f(v)] — the negative-resistance element
    of the LC oscillator (Fig. 1b of the paper).

    The describing-function machinery evaluates [f] in batches; the
    derivative feeds the exact Jacobian of the lock-point solves.

    Constructors validate their numeric domains ([neg_tanh] needs
    positive [g0]/[isat], [of_table] a well-formed table, [sample] at
    least two points) and raise [Invalid_argument] on violation. *)

type t

type batch_fn = src:float array -> dst:float array -> n:int -> unit
(** A fused slice evaluation: [dst.(i) <- f src.(i)] for [i < n]. Must
    support [src == dst] (slot [i] is read before it is written). *)

val make :
  ?name:string -> ?key:string -> ?df:(float -> float) -> ?batch:batch_fn ->
  ?odd:bool -> (float -> float) -> t
(** [make f] wraps a function; missing [df] is computed by central
    differences with a relative step of 1e-6. [key], when given, declares
    a canonical cache identity (see {!cache_key}) — only supply it if the
    string fully determines [f] bit-for-bit. [batch], when given, must be
    bit-identical to mapping [f] (it feeds cached, key-versioned
    quadratures). [odd] (default [false]) declares the mathematical
    symmetry [f (-v) = -f v], which licenses the half-period quadrature
    reduction of [Describing_function]'s [`Symmetry] mode — only set it
    if the symmetry is exact. *)

val name : t -> string

val cache_key : t -> string option
(** Canonical identity for content-addressed caching: equal keys
    guarantee bitwise-equal currents for every input. [None] (closures
    built with {!make} without [key]) means "uncacheable" and makes
    every kernel keyed on this nonlinearity bypass the cache. Built-in
    constructors ([neg_tanh], [cubic], [tunnel_diode] with any model,
    [of_table]) always carry keys; [shift_bias] and [scale_current]
    derive wrapped keys from the inner one. *)

val eval : t -> float -> float
val deriv : t -> float -> float

val eval_batch : ?n:int -> t -> src:float array -> dst:float array -> unit
(** [eval_batch t ~src ~dst] stores [eval t src.(i)] into [dst.(i)] for
    [i < n] ([n] defaults to [Array.length src]) — bit-identical to the
    scalar loop, whether it dispatches to a fused batch implementation
    ([neg_tanh], [cubic], [tunnel_diode] with any model, [of_table], and
    [shift_bias]/[scale_current] wrappers thereof) or falls back to
    per-element [eval]. [Numerics.Kernel.set_batch_enabled false] forces
    the fallback, which benches use as the scalar reference. Supports
    [src == dst]. *)

val eval_batch_fast : ?n:int -> t -> src:float array -> dst:float array -> unit
(** Tolerance-grade variant: uses a faster, not-bit-identical batch
    implementation when one exists (SIMD tanh for [neg_tanh] on capable
    hosts), [eval_batch] behaviour otherwise. Results may differ from
    [eval] in the last ulps — only the symmetry-reduced quadratures
    (bumped cache-key versions) consume this. *)

val odd : t -> bool
(** Whether [f (-v) = -f v] holds mathematically ([neg_tanh], [cubic],
    and [scale_current] of an odd nonlinearity). Gates the half-period
    reduction; [false] is always safe. *)

val neg_tanh : g0:float -> isat:float -> t
(** The paper's illustration nonlinearity: [f v = -. isat *. tanh (g0 *. v
    /. isat)]. Small-signal conductance [-g0]; saturation current [isat]. *)

(* dsa: allow unused-export — test reference implementation: its describing function is known in closed form *)
val cubic : g1:float -> g3:float -> t
(** Van der Pol cubic [f v = -. g1 *. v +. g3 *. v ** 3.] — the classic
    textbook negative resistance, used as an analytic cross-check (its
    describing function is known in closed form). *)

type tunnel_model = {
  is : float;  (** p-n saturation current, A *)
  eta : float;  (** diode ideality *)
  vth : float;  (** thermal voltage, V *)
  r0 : float;  (** ohmic-region resistance, Ohm *)
  v0 : float;  (** tunnel voltage scale, V *)
  m : float;  (** tunnel exponent *)
}
(** The tunnel-diode model of the paper's appendix, eqs. (11)–(13):
    [i v = (v / r0) exp (-(|v| / v0)^m) + is (exp (v / (eta vth)) - 1)],
    with the exponential continued linearly above [v / (eta vth) = 40].
    Field for field the same as [Spice.Device.tunnel_params], and the
    currents agree with [Spice.Device.tunnel_iv] bit for bit. *)

(* dsa: allow unused-export — test hook: the tests check the default model and build variants of it *)
val paper_tunnel : tunnel_model
(** The appendix §VI-C values: [is = 1e-12], [eta = 1], [vth = 0.025],
    [r0 = 1000], [v0 = 0.2], [m = 2]. *)

val tunnel_diode : ?model:tunnel_model -> bias:float -> unit -> t
(** Bias-shifted tunnel diode: [f v = i_td (bias + v) - i_td bias], the
    paper's §IV-B treatment (the tank only sees the incremental current).
    [model] defaults to {!paper_tunnel}. Every model runs on the fused
    batch loop and carries a cache key over its six fields and [bias]. *)

val of_table : ?name:string -> vs:float array -> is:float array -> unit -> t
(** Monotone-cubic (PCHIP) interpolation of a DC-sweep table, the output
    of the paper's Fig. 11b extraction flow. Linear extrapolation beyond
    the table. *)

val shift_bias : t -> float -> t
(** [shift_bias nl vb] is [fun v -> eval nl (vb +. v) -. eval nl vb]. *)

(* dsa: allow unused-export — test reference implementation: scales every coefficient, as the kernel tests check *)
val scale_current : t -> float -> t
(** Multiplies the output current (e.g. flipping sign or changing units). *)

val sample : t -> v_min:float -> v_max:float -> n:int -> float array * float array
(** Uniform sampling, for plotting. *)
