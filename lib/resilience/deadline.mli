(** Cooperative per-request wall-clock deadlines.

    A deadline is an absolute {!Obs.Clock.wall_s} instant attached to the
    calling thread for the duration of {!with_deadline}. Long-running
    kernels poll {!check} (or the [_abs] variants below, for work handed
    to {!Numerics.Pool} domains that do not share the submitting thread's
    state) and unwind with a typed [Budget_exhausted] {!Oshil_error.t}
    when the budget is spent, so callers surface partial results as
    {!Summary} holes instead of hanging past their budget.

    Deadlines are keyed by [Thread.id]: the server runs one worker thread
    per in-flight request, so each request sees only its own budget.
    Nested [with_deadline] scopes keep the tighter (earlier) instant.
    When no deadline is active every probe is a single atomic load. *)

val with_deadline : seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] with a deadline [seconds] from
    now attached to the current thread (restoring the previous deadline,
    if any, afterwards — even on exception). [seconds <= 0.] means the
    deadline is already expired: the first {!check} inside [f] raises.
    Nested scopes keep the minimum of the two absolute instants. *)

val save : unit -> float option
(** The current thread's absolute deadline, if one is active. Capture
    this before fanning work out to pool domains and probe it there with
    {!expired_abs}: pool workers run on other threads and do not inherit
    the submitter's deadline. *)

val expired : unit -> bool
(** [true] iff the current thread has a deadline and it has passed. *)

val expired_abs : float option -> bool
(** [expired_abs d] — has the captured absolute deadline [d] passed? *)

val error : Oshil_error.subsystem -> phase:string -> Oshil_error.t
(** The typed [Budget_exhausted] error reported when a deadline fires. *)

val check : Oshil_error.subsystem -> phase:string -> unit
(** Raise {!Oshil_error.Error} (kind [Budget_exhausted]) if the current
    thread's deadline has passed; no-op otherwise. *)
