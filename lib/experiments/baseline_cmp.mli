(** Ablation A1: the rigorous graphical method vs the PPV (generalized
    Adler) baseline vs brute-force transient lock edges, across
    injection strengths. Reproduces the paper's §I claim that the
    graphical method "matches results from PPV-based analysis but
    provides greater accuracy" — the two agree for weak injection and the
    PPV estimate drifts as [V_i] grows. *)

(* dsa: allow unused-export — test hook: the tests check the baseline's widths without rendering the table *)
val ppv_width : Shil.Analysis.oscillator -> n:int -> float -> float
(** [ppv_width osc ~n] solves the free-running harmonic balance
    ([K = 7], 1024 samples, {!Api.hb_run}) and its PPV
    ({!Hb.Driver.ppv}) once; the returned function maps [V_i] to the
    generalized-Adler lock range [2 n f_0 I_m |Y_n|] (Hz,
    injection-referred), with [Y_n] the PPV's n-th coefficient at the
    oscillation node and [I_m] the injected current amplitude
    ({!Shil.Simulate.injection_current}). First-order in the injection:
    linear in [V_i]. *)

val run : simulate:bool -> Output.t
(** The tanh oscillator at n = 3 for [V_i] in 0.01, 0.02, 0.05, 0.1 and
    0.2 V. [simulate] adds the transient lock edges of the behavioural
    netlist, which dominate the runtime when on. *)
