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
    (non-gridded) residual pair that {!find} refines to zero; infinite
    where [a <= 0] (both) or [I_1 = 0] (the phase residual). *)

val find :
  ?points:int -> Grid.t -> phi_d:float -> point list
(** All lock points at tank phase [phi_d]: walks the gridded [C_{T_f,1}]
    polylines, brackets sign changes of the (wrapped) phase residual along
    them, refines each, and deduplicates. Sorted by [phi].

    A refinement is Newton ({!Numerics.Newton}, halving line search) on
    {!residuals} with the exact Jacobian, one
    [Describing_function.i1_jacobian] pass (grid's [reduction]) per
    iterate and trial. It converges at a residual inf-norm below 1e-12
    and fails at the first stalled line search
    ([shil.solutions.refine_stalls]), after 60 steps, or when the fault
    site [roots-fail] fires. Points on the spurious [cos <= 0] branch
    are dropped; the rest are classified from their last pass, and a
    phase within 1e-9 of 0 is snapped to 0. *)

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
