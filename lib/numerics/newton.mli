(** The one Newton corrector: MNA operating points and transient
    steps, harmonic balance and the 2-D lock-point solves all iterate
    here. One call to {!solve} is one attempt; the caller supplies the
    evaluation, the residual measure, the update and the stop test.
    Recovery ladders, fault sites and counters stay with the callers.
    Every step solves its linear system by the same in-place LU, and
    there is no bordered variant: a caller that adds unknowns and
    equations (the HB autonomous solve's frequency and gauge row)
    appends them in its own [eval]. *)

type workspace
(** The buffers an attempt overwrites, for one system size: Jacobian
    (LU factors in place), residual, step, LU permutation and the
    line-search trial. A caller solving many systems of one size keeps
    one for all of them. Not for concurrent use. *)

val workspace : int -> workspace
(** [workspace size] serves systems with [size] unknowns; each step
    solves its linear system by the in-place LU. *)

type update =
  | Plain  (** [x <- x - dx] *)
  | Clamp of { limit : float; upto : int }
      (** the first [upto] components of [dx] clamped to [±limit]
          before the plain update (MNA: junction exponentials explode
          without it; branch currents stay unclamped) *)
  | Line_search
      (** [x <- x - λ dx] with [λ = 1, 1/2, …]: the first trial whose
          residual measure is below the entering one is accepted, and
          after 8 halvings the last trial is taken whatever its
          residual; that last case is a stall, which the next
          [Before_step] test is told of. The accepted trial's
          evaluation opens the next iteration, so no point is evaluated
          twice: [eval] must be a function of the iterate alone. *)

type verdict = Continue | Converged | Failed of string

(** The stop test, and where it runs. It owns the iteration cap: an
    attempt runs until it returns [Converged] or [Failed]. *)
type stop =
  | Before_step of
      (iter:int -> residual:float -> stalled:bool -> x:float array -> verdict)
      (** tested at every iterate once its residual is measured, before
          a step is taken from it; [iter] steps were taken so far.
          [stalled] is [true] when the step that reached this iterate
          was a line search that used up its halvings without descent:
          the lock-point solves fail on it, HB takes the trial and goes
          on. On [Converged] the attempt returns that iterate. *)
  | Small_step of { abs : float; rel : float; residual : float; cap : int }
      (** tested after each update: converged when the clamp or line
          search did not shorten it, its inf-norm is at most
          [abs + rel ‖x‖∞] ([x] the new iterate, returned without being
          evaluated) and the residual it was computed from at most
          [residual]; failed after [cap] steps. *)

type outcome = {
  converged : bool;
  iters : int;  (** steps taken, the last one included *)
  residual : float;  (** the last residual measured *)
  failure : string;  (** why the attempt failed; [""] when it converged *)
}

val solve :
  ?ectx:Obs.Event.solve_ctx ->
  ?measure:(jac:Linalg.mat -> res:float array -> float) ->
  ws:workspace ->
  update:update ->
  eval:(x:float array -> jac:Linalg.mat -> res:float array -> unit) ->
  stop:stop ->
  float array ->
  outcome
(** [solve ~ws ~update ~eval ~stop x] iterates in place on [x]
    (length = the workspace size). Each iteration evaluates [x] with
    [eval] (skipped when an accepted line-search trial already did),
    measures the residual with [measure] (which reads [res] and may
    read [jac]; default the inf-norm of [res]), factors the Jacobian
    and steps. [eval] must overwrite every entry of [res] and [jac]:
    they hold the previous factors and trial on entry.

    The attempt fails with ["singular Jacobian"] when the LU meets a
    pivot below 1e-300, and with ["non-finite iterate"] when an update
    leaves a NaN or infinite component in [x]; [x] then holds the
    iterate reached.

    When [ectx] names the solve and the introspection event stream is
    on, every step emits a [Newton_iter] (entering residual, applied
    step norm, damping: the clamp's shrink factor or [λ]; a singular
    Jacobian gives a NaN step) and the attempt ends with a
    [Newton_done]: pure observation. *)
