(** The one netlist realisation of a behavioural oscillator
    ({!Shil.Analysis.oscillator}): the parallel RLC tank of Fig. 1b with
    [f(v)] as a behavioural current source across it, on node ["t"].
    Harmonic balance runs on it without a kick; every time-domain check
    of a behavioural cell runs on it through {!Validate} and
    {!Spice.Transient}. *)

val steps_per_cycle : int
(** 600: the step count every behavioural transient check passes.
    Trapezoidal integration shortens the period by
    [(2 pi / steps_per_cycle)^2 / 12]; at 600 that warp is 9.1e-6,
    under half of {!Validate.lock_range}'s default [rel_tol]. *)

val kick : float
(** 1e-5 A: the start-up pulse of the transient netlists. *)

val probe : Spice.Transient.probe
(** The tank node ["t"]. *)

val injection_wave :
  tank:Shil.Tank.t -> n:int -> vi:float -> f_inj:float -> Spice.Wave.t
(** The injected tone [i(t) = Im cos(2 pi f_inj t)], with [Im] from
    {!Shil.Simulate.injection_current}: the drive every engine (HB,
    transient) applies. *)

val circuit :
  ?injection:Spice.Wave.t -> ?kick:float -> ?extra:Spice.Device.t list ->
  Shil.Analysis.oscillator -> Spice.Circuit.t
(** Devices in order: [Rtank], [Ltank], [Ctank], the nonlinear source
    [Gosc]; then, when [kick] (A) is given, a short start-up pulse
    [Ikick]; then, when [injection] is given, the current source
    [Iinj] across the tank; then [extra]. *)

val injected :
  n:int -> vi:float -> Shil.Analysis.oscillator -> f_inj:float ->
  Spice.Circuit.t
(** The lock-probe netlist: {!circuit} with the {!kick} and the
    {!injection_wave} at [f_inj]. *)
