(** Ablation A2 (beyond the paper): the filtering assumption on an
    asymmetric nonlinearity.

    The paper's examples are odd-symmetric, so the oscillator's own
    n-th-harmonic current barely perturbs the analysis. An asymmetric
    cell at n = 2 breaks that: the plain prediction's band is offset.
    This experiment compares, on a clipped asymmetric cell,

    - the plain graphical prediction (the paper's method),
    - the orbit-recentred prediction ({!Ppv.Refined}),
    - the harmonic-balance lock band at [K = 9] ({!Api.hb_run}),
    - brute-force transient lock edges of the behavioural netlist
      (when [simulate]). *)

val cell : unit -> Shil.Analysis.oscillator
(** The asymmetric demonstration cell (van der Pol core + one-sided
    clipping diode), 2 MHz tank. *)

val run : simulate:bool -> Output.t
(** [simulate] adds the transient edge searches (900 cycles per
    probe). *)
