(** Ablation A2 (beyond the paper): the filtering assumption on an
    asymmetric nonlinearity.

    The paper's examples are odd-symmetric, so the oscillator's own
    n-th-harmonic current barely perturbs the analysis. An asymmetric
    cell at n = 2 breaks that: the plain prediction's band is offset.
    This experiment compares, on a clipped asymmetric cell,

    - the plain graphical prediction (the paper's method),
    - the plain prediction recentred at the harmonic-balance
      free-running frequency ({!recenter}),
    - the harmonic-balance lock band at [K = 9] ({!Api.hb_run}),
    - brute-force transient lock edges of the behavioural netlist
      (when [simulate]). *)

(* dsa: allow unused-export — test hook: the experiment and HB tests analyse the ablation's cell directly *)
val cell : unit -> Shil.Analysis.oscillator
(** The asymmetric demonstration cell (van der Pol core + one-sided
    clipping diode), 2 MHz tank. *)

(* dsa: allow unused-export — test hook: the tests check the recentring on known bands *)
val recenter :
  Shil.Lock_range.t -> f0:float -> tank:Shil.Tank.t -> Shil.Lock_range.t
(** Scales every band edge and the width by [f0 /. Shil.Tank.f_c tank]:
    the describing function predicts the band's width well but centres
    it on [f_c], while the oscillator free-runs at [f0]. *)

val run : simulate:bool -> Output.t
(** [simulate] adds the transient edge searches (900 cycles per
    probe). *)
