(** Fixed-step initial-value ODE solvers for systems [dy/dt = f t y].

    Used by the PPV baseline: orbit finding, monodromy and adjoint
    integration. *)

type system = float -> float array -> float array
(** [f t y] returns [dy/dt]; must not retain or mutate [y]. *)

val rk4_step : system -> t:float -> dt:float -> float array -> float array
(** One classical Runge–Kutta 4 step. *)

val rk4 :
  system -> t0:float -> t1:float -> dt:float -> y0:float array ->
  (float array * float array array)
(** [rk4 f ~t0 ~t1 ~dt ~y0] integrates with fixed step (the last step is
    shortened to land on [t1]) and returns [(times, states)] including both
    endpoints. *)

val rk4_final : system -> t0:float -> t1:float -> dt:float -> y0:float array -> float array
(** As {!rk4} but returns only the final state (no trajectory storage). *)
