(** Lock-point solving: intersections of [C_{T_f,1}] with the phase curve
    (§III-C, Fig. 7) and their stability. *)

type point = {
  phi : float;  (** injection phase relative to the fundamental, rad *)
  a : float;  (** locked oscillation amplitude, V *)
  stable : bool;
  trace : float;  (** trace of the restoring-flow Jacobian *)
  det : float;  (** determinant of the restoring-flow Jacobian *)
}

val residuals :
  ?points:int -> ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float ->
  phi_d:float -> float * float -> float * float
(** [(T_f - 1, sin(angle(-I_1) + phi_d))] at [(phi, a)] — the exact
    (non-gridded) residual pair that {!refine} drives to zero. *)

val refine :
  ?points:int -> ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float -> phi_d:float ->
  phi0:float -> a0:float -> (float * float) option
(** [Numerics.Roots.newton2d] (tol 1e-12) on {!residuals} from
    [(phi0, a0)]; [None] when it does not converge. The residual is
    memoised on its last (bit-equal) argument, so the accepted damped
    point is not quadrated again when the next iteration opens on it:
    same result, one exact quadrature fewer per iteration. *)

val classify :
  ?points:int -> ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float ->
  phi_d:float -> phi:float -> a:float -> point
(** Stability from the reduced phase/amplitude flow
    [dA/dt ∝ T_F - 1], [dphi/dt ∝ -(angle(-I_1) + phi_d)]:
    stable iff the Jacobian has negative trace and positive determinant.
    This is the rigorous form of the paper's slope-comparison rule
    (§VI-B3). *)

val find :
  ?points:int -> Grid.t -> phi_d:float -> point list
(** All lock points at tank phase [phi_d]: walks the gridded [C_{T_f,1}]
    polylines, brackets sign changes of the (wrapped) phase residual along
    them, refines each with a damped 2-D Newton on the exact residuals,
    deduplicates, and classifies stability. Sorted by [phi]. The
    refinement quadratures run in the grid's own [reduction] mode. *)

val stable_exists : ?points:int -> Grid.t -> phi_d:float -> bool

val n_states : point -> n:int -> (float * float) list
(** The [n] oscillator states of a lock: physical oscillator phases
    [(psi_k, a)] with [psi_k = -phi/n + 2 pi k / n] (§VI-B4) — equally
    spaced by [2 pi / n]. *)
