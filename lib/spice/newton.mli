(** Damped Newton–Raphson on assembled MNA systems. *)

type options = {
  max_iter : int;  (** default 250 *)
  vtol_abs : float;  (** absolute step tolerance, default 1e-9 *)
  vtol_rel : float;  (** relative step tolerance, default 1e-6 *)
  res_tol : float;  (** residual (current) tolerance, default 1e-9 *)
  step_limit : float;  (** per-unknown update clamp, default 2.0 (V/A) *)
}

val defaults : options

type outcome = Converged of { iterations : int } | Diverged of string

type workspace
(** The buffers one Newton solve overwrites: the Jacobian, the residual,
    the update and the LU row permutation, for one system size. The
    caller that owns a run (a transient, an operating point) creates
    one and passes it to every solve of the run, so the iterations
    allocate no matrices. It holds no iterate: {!solve} reads [x0] and
    returns a fresh [x], so nothing a caller keeps aliases the
    workspace. A workspace also tallies the run's [spice.newton.*]
    telemetry until {!flush}. Not for concurrent use. *)

val workspace : int -> workspace
(** [workspace size] serves systems with [size] unknowns. *)

val flush : workspace -> unit
(** Reports the telemetry tallied since the last flush (counters
    [spice.newton.solves], [.iters], [.diverged]; histograms
    [spice.newton.iters_per_solve], [.residual]) and clears the tally.
    The totals equal what one report per solve would give. The run's
    owner calls this once, when the run ends. *)

val solve :
  ?options:options -> ?clamp_upto:int -> ?ectx:Obs.Event.solve_ctx ->
  ws:workspace ->
  assemble:(x:float array -> jac:Numerics.Linalg.mat -> res:float array -> unit) ->
  x0:float array -> unit -> float array * outcome
(** [solve ~ws ~assemble ~x0 ()] iterates from [x0] (length = the
    workspace size); clamps each update
    of the first [clamp_upto] unknowns (default all; pass the node count
    so branch currents stay unclamped — they are linear and may
    legitimately move by enormous amounts) componentwise to [step_limit]
    (crucial for exponential junctions) and returns the final iterate
    together with the outcome. The input [x0] is not modified; the
    returned iterate is a fresh array. [assemble] must overwrite every
    entry of [jac] and [res]: they hold the previous iteration's LU
    factors (rows swapped) on entry.

    When [ectx] names the solve and the introspection event stream is
    on, every iteration emits a [Newton_iter] record (residual norm
    entering the update, applied step norm, clamp damping factor) and
    the solve ends with a [Newton_done] — pure observation, no effect
    on the iteration itself. *)
