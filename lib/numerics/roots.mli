(** Scalar root finding. *)

exception No_bracket
(** Raised when the supplied interval does not bracket a sign change. *)

exception No_convergence of string
(** Raised when an iteration cap is hit before the tolerance is met. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> a:float -> b:float ->
  unit -> float
(** Bisection on a bracketing interval [[a, b]] (requires
    [f a *. f b <= 0.]); [tol] is on the interval width (default [1e-12]). *)

val brent :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> a:float -> b:float ->
  unit -> float
(** Brent's method (inverse quadratic / secant / bisection hybrid) on a
    bracketing interval. *)

val bracket_roots :
  f:(float -> float) -> a:float -> b:float -> n:int -> (float * float) list
(** [bracket_roots ~f ~a ~b ~n] scans [n] uniform sub-intervals of [[a, b]]
    and returns those whose endpoints show a sign change (endpoints where
    [f] vanishes exactly count as a change). In increasing order. *)

val find_all :
  ?tol:float -> f:(float -> float) -> a:float -> b:float -> n:int -> unit ->
  float list
(** Scan + Brent refinement of every bracketed root. *)
