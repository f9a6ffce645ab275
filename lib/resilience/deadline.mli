(** Cooperative per-request wall-clock deadlines.

    A deadline is an absolute {!Obs.Clock.wall_s} instant attached to the
    calling thread for the duration of {!with_deadline}. Long-running
    kernels poll {!expired} or {!check} and unwind with a typed
    [Budget_exhausted] {!Oshil_error.t} when the budget is spent, so a
    spent budget is never mistaken for a result.

    Deadlines are keyed by [Thread.id]: the server runs one worker thread
    per in-flight request, so each request sees only its own budget.
    Nested [with_deadline] scopes keep the tighter (earlier) instant.
    {!Numerics.Pool} tasks inherit the submitting thread's deadline
    through {!carry}, so a kernel polls the same ambient deadline on
    whichever domain it runs. When no deadline is active every probe is
    a single atomic load. *)

val with_deadline : seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] with a deadline [seconds] from
    now attached to the current thread (restoring the previous deadline,
    if any, afterwards — even on exception). [seconds <= 0.] means the
    deadline is already expired: the first {!check} inside [f] raises.
    Nested scopes keep the minimum of the two absolute instants. *)

val carry : unit -> (unit -> unit) -> unit
(** [carry ()] captures the calling thread's deadline, or its absence;
    the function it returns runs a thunk under exactly that deadline on
    whichever thread calls it, replacing the calling thread's own for the
    thunk's duration (restored afterwards, even on exception). A task
    submitted without a deadline thus runs without one even on a thread
    that holds another request's deadline. {!Numerics.Pool} wraps every
    task in it. When the two agree the returned function only applies
    the thunk. *)

val expired : unit -> bool
(** [true] iff the current thread has a deadline and it has passed. *)

val error : Oshil_error.subsystem -> phase:string -> Oshil_error.t
(** The typed [Budget_exhausted] error reported when a deadline fires. *)

val check : Oshil_error.subsystem -> phase:string -> unit
(** Raise {!Oshil_error.Error} (kind [Budget_exhausted]) if the current
    thread's deadline has passed, counted under
    [resilience.deadline.expired]; no-op otherwise. *)
