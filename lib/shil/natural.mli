(** Natural (free-running) oscillation prediction — §II and §III-A.

    The oscillator oscillates at the tank centre frequency with amplitude
    [A] solving [T_f(A) = -R I_1(A) / (A/2) = 1]; a solution is stable iff
    the [T_f] curve cuts [y = 1] from above ([dT_f/dA < 0]). *)

type solution = {
  a : float;  (** oscillation amplitude, V *)
  slope : float;  (** [dT_f/dA] at the solution *)
  stable : bool;
}

val small_signal_gain : ?points:int -> Nonlinearity.t -> r:float -> float
(** [lim A->0 T_f(A) = -R f'(0)]: start-up condition is [> 1]. *)

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

val predicted_amplitude :
  ?points:int -> ?a_min:float -> ?a_max:float -> ?scan:int ->
  Nonlinearity.t -> r:float -> float option
(** Largest stable solution (the observable steady state), when any. *)

val oscillates : ?points:int -> Nonlinearity.t -> r:float -> bool
(** Start-up check: [small_signal_gain > 1]. *)
