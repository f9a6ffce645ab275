(** Extension experiment X2: injection pulling outside the lock range.

    Sweeps the injection frequency beyond the predicted band edge and
    compares the measured phase-slip (beat) frequency of the pulled
    oscillator against the Adler-type prediction
    [sqrt (delta^2 - w_L^2)] fed with the rigorous lock range — turning
    the paper's lock-range analysis into a quantitative quasi-lock
    prediction. *)

val run : simulate:bool -> Output.t
(** Four injection frequencies beyond the upper band edge, offset by
    0.25, 0.5, 1 and 2 lock ranges; [simulate] adds the beats measured
    on 1200-cycle transients of the behavioural netlist. *)
