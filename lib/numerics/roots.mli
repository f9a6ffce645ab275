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

(** {1 The one lock-edge locator} of the DF, HB and transient bands *)

type edge = Bracketed of float * float | Not_bracketed of float
(** The final [(inside, outside)] bracket, or the last outward point
    when every one locked. *)

val edge :
  site:string -> float Resilience.Guard.t -> probe:(float -> bool) ->
  inside:float -> outward:float list -> tol:float -> edge
(** From [inside], known to lock, probes [outward] in order; the first
    unlocked point closes the bracket, bisected at [0.5 (in + out)]
    until [|out - in| <= tol] (at most 64 halvings). Every probe runs
    through the guard, which the caller also wraps its centre probe in:
    a hole reads as unlocked, so the band can only shrink, and a spent
    deadline raises. Each probe emits a [Bracket] event under [site]. *)
