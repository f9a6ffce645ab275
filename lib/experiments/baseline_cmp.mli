(** Ablation A1: the rigorous graphical method vs the PPV (generalized
    Adler) baseline vs brute-force transient lock edges, across
    injection strengths. Reproduces the paper's §I claim that the
    graphical method "matches results from PPV-based analysis but
    provides greater accuracy" — the two agree for weak injection and the
    PPV estimate drifts as [V_i] grows. *)

val run : simulate:bool -> Output.t
(** The tanh oscillator at n = 3 for [V_i] in 0.01, 0.02, 0.05, 0.1 and
    0.2 V. [simulate] adds the transient lock edges of the behavioural
    netlist, which dominate the runtime when on. *)
