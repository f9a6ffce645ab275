(** One-dimensional interpolation over tabulated data.

    Used to turn DC-sweep [i = f(v)] tables extracted from the circuit
    simulator into smooth nonlinearities for the describing-function
    machinery. Knot abscissae must be strictly increasing; {!pchip}
    raises [Invalid_argument] on a length mismatch, fewer than two
    knots, or non-increasing abscissae. *)

type t
(** An interpolant with an evaluation domain [[x_min, x_max]]. Evaluation
    outside the domain extrapolates linearly from the boundary slope. *)

val pchip : xs:float array -> ys:float array -> t
(** Monotone piecewise-cubic Hermite (Fritsch–Carlson slopes): shape
    preserving, no overshoot — the right choice for device I/V tables. *)

val eval : t -> float -> float

val eval_batch : ?n:int -> t -> src:float array -> dst:float array -> unit
(** [eval_batch t ~src ~dst] stores [eval t src.(i)] into [dst.(i)] for
    [i < n] ([n] defaults to [Array.length src]), bit-identical to the
    scalar loop. The knot-interval search is warm-started from the
    previous sample, which amortizes it to O(1) on piecewise-smooth
    inputs (quadrature waveforms). Supports [src == dst]. Raises
    [Invalid_argument] if [n] exceeds either array's length. *)

val eval_deriv : t -> float -> float
(** First derivative of the interpolant (exact for the polynomial pieces;
    boundary slope outside the domain). *)
