(** Transient analysis: fixed-step trapezoidal (default) or backward-Euler
    integration with a full Newton solve per step (the last step lands
    on [t_stop]).

    Each step's Newton solve starts from the quadratic through the last
    three accepted solutions, [3x₀ − 3x₋₁ + x₋₂], when this step and the
    last two are all of one size, else from the last solution [x₀] (the
    first three steps, the shorter last step, and the steps after a
    change of size). The start changes how many iterations a step takes
    and, within the stop test's tolerance, the bits of its solution.

    On a Newton failure at a step, the step is retried with up to 8 binary
    subdivisions before giving up; each half starts by the same rule. *)

type probe =
  | Node of string  (** node voltage *)
  | Diff of string * string  (** differential voltage [v a - v b] *)
  | Branch of string  (** branch current of a V source or inductor *)

type options = {
  dt : float;  (** time step, s *)
  t_stop : float;
  t_start : float;  (** recording starts here (simulation always starts at 0) *)
  integ : Mna.integ;
  use_ic : bool;  (** start from device ICs instead of the DC operating point *)
  record_stride : int;  (** keep every k-th accepted step (>= 1) *)
  gmin : float;
  budget : Resilience.Policy.budget;
      (** caps on rejected steps / wall clock; exhausting one stops
          integration with a typed [budget-exhausted] failure *)
}

val default_options : dt:float -> t_stop:float -> options
(** Trapezoidal, [t_start = 0.], OP start, stride 1, [gmin = 1e-12],
    {!Resilience.Policy.default_budget}. {!run} raises
    [Invalid_argument] unless [dt] and [t_stop] are positive. *)

type result = {
  times : float array;
  signals : (probe * float array) list;  (** in the order requested *)
  failure : Resilience.Oshil_error.t option;
      (** [None] for a complete run; [Some e] when integration stopped
          early (step failed beyond the subdivision limit, or a budget
          was exhausted) — [times]/[signals] then hold the waveform
          accumulated up to the fatal step *)
}

val run :
  ?check:Preflight.mode -> Circuit.t -> probes:probe list -> options ->
  result
(** Runs the analysis, recording the probes on [[t_start, t_stop]]. The
    circuit first passes the {!Preflight} gate ([?check], default
    [`Enforce]), which raises [Check.Diagnostic.Failed] on structural
    errors. The very first step uses backward Euler to bootstrap the
    trapezoidal state.

    A fatal step degrades to a partial result (see {!result.failure})
    unless {!Resilience.Policy.set_fail_fast} is on, in which case it
    raises {!Resilience.Oshil_error.Error}.

    When the content-addressed cache is enabled ([Cache.Store], the
    [--cache] flag), complete runs ([failure = None]) of circuits
    without behavioural [Nonlinear_cs] devices are memoized on the full
    (circuit, probes, options, check-mode) input and replayed
    bit-identically; partial runs and closure-bearing circuits always
    recompute. *)

val signal : result -> probe -> float array
(** Raises [Not_found] when the probe was not recorded. *)
