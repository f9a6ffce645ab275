(** Extension experiment X3: the Arnold tongue.

    Sweeping the injection strength traces the classic V-shaped locking
    region (lock band edges vs [V_i]) — the global picture of which the
    paper's lock-range tables are single vertical slices. The tongue is
    predicted entirely by {!Shil.Analysis.run} (one per [V_i]),
    reusing the [C_{T_f,1}]-invariance economy at each strength. *)

type point = {
  vi : float;
  f_inj_low : float;
  f_inj_high : float;
  delta_f_inj : float;
}

(* dsa: allow unused-export — test hook: the tests check the tongue numbers without rendering the figure *)
val compute :
  ?points:int -> ?vis:float list -> Shil.Analysis.oscillator -> n:int ->
  point list * Resilience.Summary.t
(** Default [vis]: 12 strengths from 0.005 to 0.3 (logarithmic-ish).

    A [vi] cell whose analysis fails becomes a
    typed hole in the returned summary (counter
    [resilience.tongue.holes]) instead of aborting the sweep, unless
    {!Resilience.Policy.set_fail_fast} is on; a spent deadline raises.
    Fault site [pool-task] fails cells by index. *)

val run : unit -> Output.t
(** Tongue of the tanh oscillator at n = 3; writes the tongue figure. *)
