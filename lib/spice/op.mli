(** DC operating-point analysis. *)

type t = {
  compiled : Mna.compiled;
  x : float array;  (** converged solution: node voltages then branch currents *)
}

val run :
  ?check:Preflight.mode -> ?x0:float array -> Circuit.t -> t
(** Finds the DC operating point. The circuit first passes the
    {!Preflight} gate ([?check], default [`Enforce]), which raises
    [Check.Diagnostic.Failed] on structural errors. Solve strategy is a
    {!Resilience.Policy} ladder: plain Newton with a small [gmin]; on
    failure, gmin stepping ([1e-2] down to [1e-12] in decades); on
    failure, source stepping (ramping all independent sources from 10%%
    to 100%%); on failure, heavily damped Newton with an extended
    iteration budget (clamp ÷ 8, cap × 4; {!Newton}). Each rung taken bumps a
    [resilience.op.rung.<name>] counter. Raises
    {!Resilience.Oshil_error.Error} ([solver-divergence], subsystem
    [spice], phase ["op"]) when every rung fails. *)

val voltage : t -> string -> float
(** Node voltage; raises [Not_found] on unknown node names. *)

val current : t -> string -> float
(** Branch current of a voltage source or inductor. *)
