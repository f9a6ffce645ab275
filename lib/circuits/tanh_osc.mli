(** The negative-tanh LC oscillator used throughout §II–III of the paper
    for illustration (Figs. 3, 7, 9, 10). Purely behavioural: the
    nonlinearity is analytic, so this oscillator exercises the theory and
    the behavioural MNA transient without the device models. *)

type params = {
  g0 : float;  (** small-signal (negative) conductance magnitude, S *)
  isat : float;  (** saturation current, A *)
  r : float;
  l : float;
  c : float;
}

val default : params
(** [g0 = 2 mS, isat = 1 mA, R = 1 kOhm], tank centred at 1 MHz with
    [Q = 10] — a loop gain of 2 at start-up, the regime of Fig. 3. *)

val tank : params -> Shil.Tank.t
val oscillator : params -> Shil.Analysis.oscillator

val circuit :
  ?injection:Spice.Wave.t -> ?kick:float -> params -> Spice.Circuit.t
(** {!Behavioural.circuit} of {!oscillator}, with a [kick] (default
    {!Behavioural.kick}) start-up pulse. The injection waveform, when
    given, drives a current source across the tank. Probe the
    oscillation on node ["t"]. *)
