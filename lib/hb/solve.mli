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

type stats = {
  iters : int;
  residual : float;
  rung : string;
  omega : float;
      (** base angular frequency of the solution: the assembled one,
          or with a gauge the converged one *)
}

val solve :
  ?tol:float ->
  ?x0:float array ->
  ?gauge:int ->
  System.assembled ->
  float array * stats
(** [solve asm] returns the converged unknown vector (length
    [System.size]) and solve statistics. [x0] (same length; default
    zero) starts both rungs; [tol] defaults to 1e-12; each rung stops
    after 60 iterations.

    Without [gauge] the base frequency is [asm]'s. With [gauge = Some
    node] it is one more unknown (the autonomous steady state), carried
    as [omega / omega0] from 1 so that it is of order 1 in
    [||x||_inf]; the system is bordered by the gauge row [Im X_1 = 0]
    at [node] and the exact column {!System.omega_column}, and each
    iteration re-assembles at the iterate's frequency. An iterate with
    [omega <= 0] fails the attempt (a line-search trial there is backed
    off). [X = 0] solves this system too: telling it apart is the
    caller's.

    Raises {!Resilience.Oshil_error.Error} ([Solver_divergence]) when
    every rung fails. *)
