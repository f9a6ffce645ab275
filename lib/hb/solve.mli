(** Newton on the spectral residual, by {!Numerics.Newton}.

    The solver runs under the {!Resilience.Policy} ladder (plain
    Newton, then damped Newton with a halving line search) with phase
    ["hb"], so failures surface as typed [Solver_divergence] errors and
    recoveries land on the [resilience.hb.*] counters. The fault site
    [hb-newton] fails one solve attempt per firing.

    Telemetry: each iteration bumps [hb.newton_iters] and, when the
    introspection event stream is on, emits a [Newton_iter] carrying
    the solver identity (["hb"], rung name); every successful solve
    bumps [hb.solves] and samples the converged scaled residual into
    the [hb.residual] histogram.

    Convergence is measured on the row-scaled residual infinity norm
    (each row divided by its Jacobian row maximum), relative to
    [max 1 ||x||_inf]. *)

type stats = { iters : int; residual : float; rung : string }

val solve :
  ?tol:float ->
  ?x0:float array ->
  System.assembled ->
  probe:(int * float) option ->
  float array * stats
(** [solve asm ~probe] returns the converged unknown vector (length
    [System.size] plus two probe-current slots when [probe] is given)
    and solve statistics. [tol] defaults to 1e-12; each rung stops
    after 60 iterations.

    [probe = Some (node, a)] augments the system with an ideal
    fundamental-only AC probe at [node]: two extra unknowns (the probe
    current's Re/Im parts, stored after the base unknowns) and two pin
    equations [Re V_{node,1} = a/2], [Im V_{node,1} = 0]. The probe is
    an open circuit at every other harmonic; the oscprobe outer loop
    drives its fundamental current to zero.

    Raises {!Resilience.Oshil_error.Error} ([Solver_divergence]) when
    every rung fails. *)
