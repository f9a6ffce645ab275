(** Lock-point solving: intersections of [C_{T_f,1}] with the phase curve
    (§III-C, Fig. 7) and their stability. *)

type point = {
  phi : float;  (** injection phase relative to the fundamental, rad *)
  a : float;  (** locked oscillation amplitude, V *)
  stable : bool;
  trace : float;  (** trace of the restoring-flow Jacobian *)
  det : float;  (** determinant of the restoring-flow Jacobian *)
}

(* dsa: allow unused-export — test hook: the tests check the exact residual pair against the grid *)
val residuals :
  ?points:int -> ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float ->
  phi_d:float -> float * float -> float * float
(** [(T_f - 1, sin(angle(-I_1) + phi_d))] at [(phi, a)] — the exact
    (non-gridded) residual pair that {!refine} drives to zero. *)

(* dsa: allow unused-export — test hook: the kernel tests count the quadratures one refinement costs *)
val refine :
  ?points:int -> ?reduction:Describing_function.reduction ->
  Nonlinearity.t -> n:int -> r:float -> vi:float -> phi_d:float ->
  phi0:float -> a0:float -> (float * float) option
(** Newton ({!Numerics.Newton}, halving line search, forward-difference
    Jacobian) on {!residuals} from [(phi0, a0)], to a residual
    inf-norm below 1e-12 (below 1e-6 after 60 steps); [None] when it
    does not converge, or when the fault site [roots-fail] fires. Each
    step costs two quadratures for the Jacobian plus one per
    line-search trial; the accepted trial's residual opens the next
    step. *)

val find :
  ?points:int -> Grid.t -> phi_d:float -> point list
(** All lock points at tank phase [phi_d]: walks the gridded [C_{T_f,1}]
    polylines, brackets sign changes of the (wrapped) phase residual along
    them, refines each with a damped 2-D Newton on the exact residuals,
    deduplicates, and classifies stability. Sorted by [phi]. The
    refinement quadratures run in the grid's own [reduction] mode. *)

val stable_exists : ?points:int -> Grid.t -> phi_d:float -> bool
(** [List.exists (fun p -> p.stable) (find g ~phi_d)], computed with
    less work: {!find}'s candidates are refined in {!find}'s order, in
    waves as wide as the pool, deduplicated by {!find}'s rule, and the
    answer is [true] at the first stable point. Candidates left
    unrefined count under [shil.solutions.skipped]; the span is
    [shil.solutions.find], as for {!find}. *)

val n_states : point -> n:int -> (float * float) list
(** The [n] oscillator states of a lock: physical oscillator phases
    [(psi_k, a)] with [psi_k = -phi/n + 2 pi k / n] (§VI-B4) — equally
    spaced by [2 pi / n]. *)
