(** Natural (free-running) oscillation prediction — §II and §III-A.

    The oscillator oscillates at the tank centre frequency with amplitude
    [A] solving [T_f(A) = -R I_1(A) / (A/2) = 1]; a solution is stable iff
    the [T_f] curve cuts [y = 1] from above ([dT_f/dA < 0]). *)

type solution = {
  a : float;  (** oscillation amplitude, V *)
  slope : float;  (** [dT_f/dA] at the solution *)
  stable : bool;
}

val small_signal_gain : Nonlinearity.t -> r:float -> float
(** [lim A->0 T_f(A) = -R f'(0)]: start-up condition is [> 1]. *)

(* dsa: allow unused-export — test hook: the kernel tests pin the key layout and versions *)
val cache_key :
  nl_key:string -> r:float -> points:int -> a_min:float -> a_max:float ->
  scan:int -> Cache.Key.t
(** The content address of one {!solve} (exposed for tests and
    tooling): kind [shil.natural], version 1, [points] resolved to the
    quadrature default. *)

val solve :
  ?points:int -> ?a_min:float -> ?a_max:float -> ?scan:int ->
  Nonlinearity.t -> r:float -> solution list
(** All solutions of [T_f(A) = 1] on [[a_min, a_max]] (defaults
    [1e-4 .. 10]), located by scanning [scan] (default 400) intervals and
    refining each bracket with Brent; sorted by amplitude. With
    [Cache.Store] on and a nonlinearity that has a canonical identity,
    the solution list is cached under {!cache_key}; a hit is
    bit-identical to a cold solve. *)

val solve_within : tol:float -> Nonlinearity.t -> r:float -> solution list
(** {!solve} over its default scan with its sums sized by stated error
    instead of the fixed count, for [Analysis.run] without [?points].
    The scan brackets the roots at 128 points;
    {!Describing_function.stated_points} then measures the relative
    [I_1] change from [N/2] to [N] at the bracket ends and accepts the
    first [N] (from 128, capped at
    {!Describing_function.default_points}) within [tol]; Brent refines
    each bracket at [N], which confirms its sign change there, and a
    bracket that loses it sends the solve to a full rescan at [N]. The
    stated error covers the bracket ends only: an oscillator with no
    bracket at 128 points has no solutions. Cached like {!solve}, under
    a key with [points=stated] and [tol]. *)

val predicted_amplitude :
  ?points:int -> ?a_min:float -> ?a_max:float -> ?scan:int ->
  Nonlinearity.t -> r:float -> float option
(** Largest stable solution (the observable steady state), when any. *)

val oscillates : Nonlinearity.t -> r:float -> bool
(** Start-up check: [small_signal_gain > 1]. *)
