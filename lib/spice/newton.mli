(** Newton–Raphson on assembled MNA systems: {!Numerics.Newton} with a
    componentwise clamp, the MNA stop test and the [spice.newton.*]
    telemetry.

    A solve accepts a step below [1e-9 + 1e-6 ‖x‖∞] when the residual
    it was computed from is below 1e-8 and no component was clamped.
    The clamp is 2 V (or A) per unknown and the cap 250 iterations; a
    damped solve clamps at 0.25 and allows 1000. *)

type workspace
(** The Newton workspace of one system size, plus a tally of the run's
    [spice.newton.*] telemetry until {!flush}. The caller that owns a
    run (a transient, an operating point) creates one and passes it to
    every solve of the run, so the iterations allocate no matrices.
    Not for concurrent use. *)

val workspace : clamp_upto:int -> int -> workspace
(** [workspace ~clamp_upto size] serves systems with [size] unknowns,
    clamping the update of the first [clamp_upto] (pass the node count,
    so branch currents stay unclamped: they are linear and may
    legitimately move by enormous amounts). *)

val flush : workspace -> unit
(** Reports the telemetry tallied since the last flush (counters
    [spice.newton.solves], [.iters], [.diverged]; histograms
    [spice.newton.iters_per_solve], [.residual]) and clears the tally.
    The totals equal what one report per solve would give. The run's
    owner calls this once, when the run ends. *)

val solve :
  ?ectx:Obs.Event.solve_ctx -> ?damped:bool -> ws:workspace ->
  assemble:(x:float array -> jac:Numerics.Linalg.mat -> res:float array -> unit) ->
  float array -> (unit, string) result
(** [solve ~ws ~assemble x] iterates in place on [x] (length = the
    workspace size), the caller's start on entry and the converged
    iterate on [Ok ()]; on [Error why], [x] holds the iterate reached.
    [assemble] must overwrite every entry of [jac] and [res]. [damped]
    (default [false]) divides the clamp by 8 and multiplies the cap
    by 4.

    The fault sites [newton-singular] (the Jacobian is zeroed) and
    [device-nan] (a NaN residual) fire once per solve. [ectx] names the
    solve on the introspection event stream ({!Numerics.Newton.solve}). *)
