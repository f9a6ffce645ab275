(** Recovery-policy engine: declarative retry ladders with budgets.

    A ladder is an ordered list of {!rung}s — cheapest first — tried in
    sequence until one succeeds. Each rung taken past the first bumps a
    [resilience.<phase>.rung.<name>] counter, successful recovery bumps
    [resilience.<phase>.recovered], total failure
    [resilience.<phase>.failed]; budgets (retry count, rejected steps)
    turn runaway retries into a typed [Budget_exhausted] error. Wall
    clock is {!Deadline}'s alone. *)

type budget = {
  max_retries : int;  (** total rungs attempted per {!escalate} *)
  max_rejected_steps : int;  (** per-run transient step rejections *)
}

val default_budget : budget
(** [{max_retries = 64; max_rejected_steps = 100_000}] — generous
    enough that healthy runs never hit it. *)

val set_fail_fast : bool -> unit
(** Global degrade-vs-abort switch: when on, {!Guard}'s hole rule
    re-raises the first per-item error instead of recording a hole, and
    a transient stopped by a fatal step raises instead of returning its
    truncated waveform. *)

val fail_fast : unit -> bool

type 'a rung

val rung : string -> (unit -> ('a, string) result) -> 'a rung
(** [rung name attempt] — a named recovery strategy. *)

val escalate :
  ?budget:budget ->
  subsystem:Oshil_error.subsystem ->
  phase:string ->
  'a rung list ->
  ('a, Oshil_error.t) result
(** Try each rung in order; first [Ok] wins. A rung raising
    {!Oshil_error.Error} aborts the ladder with that error (used for
    budget propagation from nested machinery). *)

type step_tracker

val track_steps :
  ?budget:budget ->
  subsystem:Oshil_error.subsystem ->
  phase:string ->
  unit ->
  step_tracker

val note_rejection :
  ?context:(string * string) list -> step_tracker -> (unit, Oshil_error.t) result
(** Record one rejected step; [Error] once the rejected-step budget is
    exhausted. The error's context carries [context] (the transient
    passes the rejected step's time [t]) after the budget fields. *)
