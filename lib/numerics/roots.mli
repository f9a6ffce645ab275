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

type guard = {
  guarded : float -> (unit -> bool) -> bool;
      (** [guarded x verdict] is one probe at [x]. A spent deadline, or a [Budget_exhausted]
          raised by the verdict, raises [budget-exhausted]: never a
          verdict. Other failures re-raise under fail-fast, and
          otherwise are typed holes ([resilience.<phase>.holes]) read
          as unlocked. Thread-safe. *)
  summary : unit -> Resilience.Summary.t;  (** probes run, holes in order *)
}
(** Wraps every probe of one search, the caller's centre probe too. *)

val guard :
  ?fault:string -> ?counter:string -> Resilience.Oshil_error.subsystem ->
  phase:string -> label:(float -> string) -> guard
(** Holds the calling thread's deadline by value and lends it to each
    verdict, so probes on pool domains see it too. Each probe bumps [counter] and may fire the fault
    site [fault]; [label x] names a failed probe's hole. *)

type edge = Bracketed of float * float | Not_bracketed of float
(** The final [(inside, outside)] bracket, or the last outward point
    when every one locked. *)

val edge :
  site:string -> guard -> probe:(float -> bool) -> inside:float ->
  outward:float list -> tol:float -> edge
(** From [inside], known to lock, probes [outward] in order; the first
    unlocked point closes the bracket, bisected at [0.5 (in + out)]
    until [|out - in| <= tol] (at most 64 halvings). Each probe emits a
    [Bracket] event under [site]. *)
